/* Loads, stores, memcpy, memset and memcmp on a local, a malloc'd block
   and an array of capabilities, each both through the object's own
   pointer, whose provenance names its allocation, and through a pointer
   to the same address derived from the default data capability (DDC),
   whose empty provenance leaves the memory model to find the allocation
   by address. The hardware profiles see the same bytes and tags either
   way and exit with a checksum; cerberus and iso-baseline stop at the
   first DDC access (UB_empty_provenance_access). */
void *ddc_alias(void *p) {
  return cheri_address_set(cheri_ddc_get(), cheri_address_get(p));
}

int main(void) {
  int local = 3;
  int *dl = ddc_alias(&local);
  *dl += 4;
  local *= 2;
  int sum = *dl;

  long *heap = malloc(4 * sizeof(long));
  for (int i = 0; i < 4; i++) heap[i] = i + 1;
  long *dh = ddc_alias(heap);
  dh[2] = 10;
  sum += (int)(heap[2] + dh[3]);
  memset(dh, 0, sizeof(long));
  sum += (int)heap[0];

  int a = 1, b = 2, c = 5;
  int *caps[3] = {&a, &b, &c};
  int **dcaps = ddc_alias(caps);
  sum += *dcaps[1];
  dcaps[0] = &c;
  sum += *caps[0];

  int **copy = malloc(sizeof caps);
  int **dcopy = ddc_alias(copy);
  memcpy(dcopy, caps, sizeof caps);
  sum += *dcopy[2] + *copy[1];
  *copy[0] = 11;
  sum += c + (memcmp(dcopy, caps, sizeof caps) == 0);
  free(copy);
  free(heap);
  return sum;
}
