/* `int += double` whose result does not fit: UB at the conversion back
   to the target type, from the compound assignment itself. */
int main(void) {
  int n = 2000000000;
  n += 1e9;
  return n;
}
