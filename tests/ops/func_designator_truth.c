/* A function designator in a truth test decays to a pointer to the
   function, which is never null (C11 6.3.2.1p4), so each test below goes
   its true way and sets its own bit: the program exits 31. Under `!` the
   designator gives 0, which takes the `else`. */
int main(void) {
  int r = 0;
  if (main) r |= 1;
  if (!main) r = 100; else r |= 2;
  if (main && 1) r |= 4;
  r |= main ? 8 : 64;
  for (; main;) { r |= 16; break; }
  return r;
}
