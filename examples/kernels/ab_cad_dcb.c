// Figure 9's tensor contraction ab-cad-dcb at extent 32: under clang-O3
// its whole (c, d) sub-walk repeats for 16 consecutive b, a level above
// the innermost loop, so the simulator replays most of it.
void contraction(float A[32][32][32], float B[32][32][32], float C[32][32]) {
  for (int a = 0; a < 32; ++a)
    for (int b = 0; b < 32; ++b)
      C[a][b] = 0.0;
  for (int a = 0; a < 32; ++a)
    for (int b = 0; b < 32; ++b)
      for (int c = 0; c < 32; ++c)
        for (int d = 0; d < 32; ++d)
          C[a][b] += A[c][a][d] * B[d][c][b];
}
