/* A call through a function pointer whose tag was cleared stops under
   every capability profile (UB_CHERI_InvalidCap); without capabilities
   (iso-baseline) it goes through, as does the tagged call before it. */
int f(int x) { return x + 1; }
int main(void) {
  int (*pf)(int) = f;
  printf("%d\n", pf(1));
  pf = cheri_tag_clear(pf);
  return pf(2);
}
