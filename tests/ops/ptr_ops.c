/* Pointer `+=`/`-=`, difference, relational and equality comparison,
   and one-past-the-end construction. */
int main(void) {
  int arr[6] = {10, 11, 12, 13, 14, 15};
  int *p = arr;
  int *end = arr + 6;          /* one past the end is fine */
  p += 4;
  p -= 1;
  long diff = end - p;
  int lt = p < end, le = p <= p, gt = p > end, ge = end >= arr;
  int eq = p == &arr[3], ne = p != arr;
  int sum = 0;
  for (int *it = arr; it < end; it += 2)
    sum += *it;
  printf("%d %ld %d %d %d %d %d %d %d\n", *p, diff, lt, le, gt, ge, eq, ne, sum);
  return (int)diff;
}
