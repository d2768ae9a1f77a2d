/* `++` past INT_MAX is signed overflow: UB in every profile. */
int main(void) {
  int i = 2147483646;
  i++;
  printf("%d\n", i);
  i++;
  return i;
}
