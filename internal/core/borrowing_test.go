package core

import (
	"testing"

	"agsim/internal/workload"
)

func TestShouldBorrow(t *testing.T) {
	// Paper Fig. 14: sharing-heavy jobs regress under borrowing.
	if ShouldBorrow(workload.MustGet("lu_ncb")) {
		t.Error("lu_ncb must stay consolidated")
	}
	if ShouldBorrow(workload.MustGet("radiosity")) {
		t.Error("radiosity must stay consolidated")
	}
	if !ShouldBorrow(workload.MustGet("raytrace")) {
		t.Error("raytrace should borrow")
	}
	if !ShouldBorrow(workload.MustGet("radix")) {
		t.Error("radix should borrow")
	}
}
