/* `--` past INT_MIN on an object whose address is taken, so fast mode
   keeps it in memory. */
int main(void) {
  int i = -2147483647 - 1;
  int *p = &i;
  *p = *p + 1;
  i--;
  i--;
  return i;
}
