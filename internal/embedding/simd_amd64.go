//go:build amd64

package embedding

// adagradPairAVX lives in simd_amd64.s. It uses only VMULPD, VSQRTPD,
// VDIVPD, VSUBPD and VADDPD (and their scalar forms for the n%4 tail),
// all correctly rounded per IEEE 754, so every dimension reproduces
// adagradPairGeneric bit for bit. mathx.HasAVX gates the dispatch.

//go:noescape
func adagradPairAVX(wi, wj, gwi, gwj *float64, n int, resid, lr float64)
