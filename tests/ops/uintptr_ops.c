/* `+=`, `-=`, `++` and `--` on (u)intptr_t: the result derives its
   capability from the operand (§3.3), so it can be cast back and used. */
#include <stdint.h>
int main(void) {
  int arr[8] = {0, 1, 2, 3, 4, 5, 6, 7};
  uintptr_t u = (uintptr_t)arr;
  u += 3 * sizeof(int);
  u++;
  u--;
  u -= sizeof(int);
  intptr_t s = (intptr_t)&arr[4];
  s += sizeof(int);
  ++s;
  --s;
  int *p = (int *)u;
  int *q = (int *)s;
  printf("%d %d %d\n", *p, *q, (int)(q - p));
  return *p + *q;
}
