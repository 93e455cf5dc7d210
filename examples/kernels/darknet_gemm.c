// Darknet's gemm_nn (Workloads.Polybench.darknet_gemm): row-major buffers
// linearized into rank-1 subscripts, which hide the GEMM from the tactic
// matcher until delinearization recovers the 2-D accesses (Figure 8):
//   mlt-opt examples/kernels/darknet_gemm.c --delinearize --raise-affine-to-linalg
void darknet_gemm(float A[16384], float B[16384], float C[16384]) {
  for (int i = 0; i < 128; ++i)
    for (int kk = 0; kk < 128; ++kk)
      for (int j = 0; j < 128; ++j)
        C[i*128 + j] += A[i*128 + kk] * B[kk*128 + j];
}
