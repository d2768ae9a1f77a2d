/* Integer and floating compound assignment into int, unsigned, char,
   float and double targets, with mixed operand types and unsigned wrap. */
int main(void) {
  int n = 10;
  n += 2.6;                    /* int target, double common type: 12 */
  n -= 3;
  n *= 4;
  n /= 3;
  n %= 7;
  n <<= 3;
  n >>= 1;
  n |= 1;
  n &= 29;
  n ^= 6;
  unsigned u = 0;
  u -= 1;                      /* unsigned wrap */
  u += 2;
  unsigned char c = 250;
  c += 10;                     /* converts back to unsigned char: 4 */
  float f = 0.5f;
  f += 1;                      /* float target, int rhs */
  f *= 3.0;                    /* float target, double common type */
  f /= 7;
  double d = 1.0;
  d += f;
  d -= 0.25;
  long l = 1;
  l += 0.5;
  printf("%d %u %d %f %f %ld\n", n, u, c, f, d, l);
  return n;
}
