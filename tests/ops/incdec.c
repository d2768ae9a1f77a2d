/* `++`/`--` on signed, unsigned and narrow integers, prefix and postfix,
   and on pointers, through locals that fast mode promotes and through
   memory it keeps. */
int main(void) {
  int i = 5;
  int a = i++;
  int b = ++i;
  int c = i--;
  int d = --i;
  unsigned u = 0;
  u--;                         /* unsigned wrap: UINT_MAX */
  unsigned char uc = 255;
  uc++;                        /* wraps to 0 */
  signed char sc = -128;
  sc++;
  int arr[4] = {1, 2, 3, 4};
  int *p = arr;
  p++;
  ++p;
  int x = *p--;
  int y = *--p;
  int *q = &i;                 /* `i` escapes: its ++ stays in memory */
  (*q)++;
  printf("%d %d %d %d %u %d %d %d %d %d\n", a, b, c, d, u, uc, sc, x, y, i);
  return a + b + c + d;
}
