/* Unsigned and capability-carrying products wrap (C11 6.2.5p9, §3.3),
   even when the exact product is 2^127 or more: exits 7. */
#include <stdint.h>
int main(void) {
  unsigned long a = 0xFFFFFFFFFFFFFFFFUL;
  unsigned int b = 4294967295u;
  uintptr_t c = (uintptr_t)a;
  unsigned long m = a;
  m *= a;
  printf("%lu %u %lu %lu\n", a * a, b * b, (unsigned long)(c * c), m);
  return a * a == 1 && b * b == 1 && (unsigned long)(c * c) == 1 && m == 1 ? 7 : 3;
}
