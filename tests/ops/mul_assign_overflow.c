/* `*=` at a signed type overflows as `*` does: 3037000500^2 > LONG_MAX. */
int main(void) {
  long x = 3037000500;
  x *= 3;
  printf("%ld\n", x);
  x = 3037000500;
  x *= x;
  return 0;
}
