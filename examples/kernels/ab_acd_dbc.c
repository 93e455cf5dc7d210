// Figure 9's tensor contraction ab-acd-dbc at extent 32: under clang-O3
// the innermost d loop walks B's column 4 KB a step, in one L1 set, and
// that column repeats for consecutive c while A's row moves on, so the
// simulator replays B's accesses and probes only A's and C's.
void contraction(float A[32][32][32], float B[32][32][32], float C[32][32]) {
  for (int a = 0; a < 32; ++a)
    for (int b = 0; b < 32; ++b)
      C[a][b] = 0.0;
  for (int a = 0; a < 32; ++a)
    for (int b = 0; b < 32; ++b)
      for (int c = 0; c < 32; ++c)
        for (int d = 0; d < 32; ++d)
          C[a][b] += A[a][c][d] * B[d][b][c];
}
