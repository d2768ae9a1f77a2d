/* A null pointer constant is a valid pointer argument of the C library:
   `free` of a null pointer does nothing (C11 7.22.3.3p2) and `realloc` of
   one acts as `malloc` (7.22.3.5p3). The program exits 5. */
int main(void) {
  free(0);
  int *q = realloc(0, 2 * sizeof(int));
  q[1] = 5;
  int r = q[1];
  free(q);
  return r;
}
