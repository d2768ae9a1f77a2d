/* String-literal initialisers: exact fit, padded, empty, signed and
   unsigned char elements, and a global. */
char g[8] = "global";
int main(void) {
  char a[] = "hello";
  char b[10] = "ab";
  unsigned char c[4] = "xyz";
  signed char e[3] = "";
  printf("%s %s %s %d %d %s\n", a, b, c, (int)sizeof(a), b[5], g);
  printf("%d %d %d\n", e[0], e[2], c[3]);
  return a[4] + b[1];
}
