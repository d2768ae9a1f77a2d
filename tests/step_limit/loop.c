/* Never ends: the 50M-step budget stops it. The tree engine counts a
   step per AST node and the VM one per instruction, so the two engines
   stop in different iterations, with different output, statistics and
   events. An `engine-diff` job must count that as agreement. Most steps
   of an iteration are register arithmetic, so the run records few
   memory events. */
int main(void) {
  unsigned i = 0;
  for (;;) {
    i++;
    if ((i & 0x3FF) + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1
        + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 == 30)
      printf(".");
  }
}
