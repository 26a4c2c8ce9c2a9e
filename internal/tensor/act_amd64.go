package tensor

// SSE2 implementations (act_amd64.s) of tanhGo and sigmoidGo for slices whose
// length is a multiple of four. MULPS/ADDPS/DIVPS/MINPS/MAXPS perform, lane by
// lane, the single-precision operations Tanh32 and Sigmoid32 spell out, in
// the same order and with nothing fused, so each lane equals the scalar
// function bit for bit. No bounds checks: dst must be at least len(src) long.

//go:noescape
func tanhLanes(dst, src []float32)

//go:noescape
func sigmoidLanes(dst, src []float32)

// actLanes holds every constant of Tanh32 and Sigmoid32 broadcast to four
// lanes, at the offsets act_amd64.s loads them from (16 bytes per row).
var actLanes = [...][4]float32{
	{tanhClamp, tanhClamp, tanhClamp, tanhClamp},     // 0
	{-tanhClamp, -tanhClamp, -tanhClamp, -tanhClamp}, // 16
	{tanhA13, tanhA13, tanhA13, tanhA13},             // 32
	{tanhA11, tanhA11, tanhA11, tanhA11},             // 48
	{tanhA9, tanhA9, tanhA9, tanhA9},                 // 64
	{tanhA7, tanhA7, tanhA7, tanhA7},                 // 80
	{tanhA5, tanhA5, tanhA5, tanhA5},                 // 96
	{tanhA3, tanhA3, tanhA3, tanhA3},                 // 112
	{tanhA1, tanhA1, tanhA1, tanhA1},                 // 128
	{tanhB6, tanhB6, tanhB6, tanhB6},                 // 144
	{tanhB4, tanhB4, tanhB4, tanhB4},                 // 160
	{tanhB2, tanhB2, tanhB2, tanhB2},                 // 176
	{tanhB0, tanhB0, tanhB0, tanhB0},                 // 192
	{0.5, 0.5, 0.5, 0.5},                             // 208
}
