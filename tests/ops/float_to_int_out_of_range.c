/* A float -> int cast whose truncated value does not fit is UB
   (ISO 6.3.1.4p1); the in-range `int += double` before it is not. */
int main(void) {
  double d = 1.5e10;
  int n = 7;
  n += 1.0;
  printf("%d\n", n);
  n = (int)d;
  return n;
}
