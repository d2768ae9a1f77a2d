/* A signed `*` whose product does not fit its type is signed overflow
   (C11 6.5p5): UB in every profile, as for `+` and `-`. */
int main(void) {
  int x = 65536;
  printf("%d\n", x * 2);
  return x * x == 0;
}
