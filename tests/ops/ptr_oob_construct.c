/* Constructing a pointer more than one past the end (§3.2): UB under the
   abstract machine; the hardware profiles keep going, and the pointer
   moved back in bounds is usable again. */
int main(void) {
  int arr[4] = {1, 2, 3, 4};
  int *p = arr;
  p += 2;
  printf("%d\n", *p);
  p += 100;
  printf("%d\n", p > arr);
  p -= 100;
  return *p;
}
