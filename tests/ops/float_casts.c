/* Float <-> int casts and f32 rounding, in both directions and through
   memory and registers: every value is printed so the engines and
   pipelines must agree on each conversion. */
int main(void) {
  double d = 3.99;
  float f = 16777217;          /* int -> float rounds through f32 */
  double big = 16777217;       /* ... but not through f64 */
  int i = (int)d;              /* truncates toward zero */
  int n = (int)-2.75;
  long l = (long)1e12;
  unsigned char uc = (unsigned char)255.9;
  float third = (float)(1.0 / 3.0);
  double back = third;         /* float -> double keeps the f32 value */
  printf("%d %d %d %d\n", i, n, (int)(l / 1000000), uc);
  printf("%f %f %f\n", f, big, back);
  printf("%d %d\n", (int)f - 16777216, (int)big - 16777216);
  float g = 0.1f;
  g = g * 3;                   /* f32 arithmetic rounds each result */
  printf("%d\n", g == (float)0.3);
  return i + n;
}
