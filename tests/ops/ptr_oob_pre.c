/* Moving a pointer before the start of its object with `--` and `-`. */
int main(void) {
  int arr[2] = {7, 8};
  int *p = arr;
  int *q = p - 1;
  p--;
  return q == p;
}
