package server

import (
	"testing"

	apiv1 "bwc/api/v1"
)

// TestStoreEviction: a full history drops its oldest finished record,
// keeps running ones whatever their age, and lists the rest newest
// first.
func TestStoreEviction(t *testing.T) {
	st := newStore(3)
	running := st.Start("simulate", "fa")
	var done []string
	for _, fp := range []string{"fb", "fc", "fd", "fe"} {
		id := st.Start("submit", fp)
		st.Finish(id, "ok", nil)
		done = append(done, id)
	}
	var got []string
	for _, r := range st.List() {
		got = append(got, r.ID)
	}
	want := []string{done[3], done[2], running}
	if len(got) != len(want) {
		t.Fatalf("retained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("retained %v, want %v", got, want)
		}
	}
	if r, ok := st.Get(running); !ok || r.Status != apiv1.RunRunning {
		t.Fatalf("running record lost: %+v %v", r, ok)
	}
	for _, id := range done[:2] {
		if _, ok := st.Get(id); ok {
			t.Fatalf("evicted record %s still retrievable", id)
		}
	}
}
