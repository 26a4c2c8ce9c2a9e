//go:build !amd64

package tensor

func tanhLanes(dst, src []float32) { tanhGo(dst, src) }

func sigmoidLanes(dst, src []float32) { sigmoidGo(dst, src) }
