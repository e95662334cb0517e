package server_test

import (
	"bytes"
	"testing"

	"agsim/internal/firmware"
	"agsim/internal/server"
	"agsim/internal/snapshot"
	"agsim/internal/workload"
)

// TestResetImagesLikeNew: a server Reset after a life with a two-socket
// job images byte for byte like a new server at the same seed — New and
// Reset leave one state, down to the empty job and thread lists and the
// chips' step scratch — and the two live the next life alike.
func TestResetImagesLikeNew(t *testing.T) {
	image := func(s *server.Server) []byte {
		img, err := snapshot.Save(s, snapshot.Meta{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	life := func(s *server.Server) {
		ps, _ := server.PlaceOnFree(s.FreeCores(nil), 6, false)
		s.MustSubmit("split", workload.MustGet("radix"), ps, 2)
		s.SetMode(firmware.Undervolt)
		s.Settle(0.5)
	}
	fresh := server.MustNew(server.DefaultConfig(3))
	pooled := server.MustNew(server.DefaultConfig(8))
	life(pooled)
	pooled.Reset(3, nil)
	if !bytes.Equal(image(fresh), image(pooled)) {
		t.Fatal("reset server images differently from a new one")
	}
	life(fresh)
	life(pooled)
	if !bytes.Equal(image(fresh), image(pooled)) {
		t.Error("reset server's next life images differently from a new server's")
	}
}
