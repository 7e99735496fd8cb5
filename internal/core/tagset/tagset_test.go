package tagset

import (
	"cmp"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"asyncfd/internal/ident"
)

func TestZeroValueUsable(t *testing.T) {
	var s Set
	if s.Len() != 0 || s.Has(1) {
		t.Fatal("zero Set not empty")
	}
	s.Add(1, 5)
	if got, ok := s.Get(1); !ok || got != 5 {
		t.Fatalf("Get(1) = %d,%v; want 5,true", got, ok)
	}
}

func TestAddReplaces(t *testing.T) {
	s := new(Set)
	s.Add(3, 10)
	s.Add(3, 4) // paper's Add replaces unconditionally, even with older tag
	if got, _ := s.Get(3); got != 4 {
		t.Errorf("Add did not replace: tag = %d, want 4", got)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

func TestAddInvalidIDNoop(t *testing.T) {
	s := new(Set)
	s.Add(ident.Nil, 1)
	if s.Len() != 0 {
		t.Error("Add(Nil) inserted an entry")
	}
}

func TestRemove(t *testing.T) {
	s := new(Set)
	s.Add(1, 1)
	if !s.Remove(1) {
		t.Error("Remove existing = false")
	}
	if s.Remove(1) {
		t.Error("Remove absent = true")
	}
	var zero Set
	if zero.Remove(9) {
		t.Error("Remove on zero set = true")
	}
}

func TestEntriesSorted(t *testing.T) {
	s := new(Set)
	s.Add(9, 1)
	s.Add(2, 7)
	s.Add(5, 3)
	es := s.Entries()
	if len(es) != 3 || es[0].ID != 2 || es[1].ID != 5 || es[2].ID != 9 {
		t.Errorf("Entries = %v, want sorted by id", es)
	}
	ids := s.IDs()
	if ids[0] != 2 || ids[1] != 5 || ids[2] != 9 {
		t.Errorf("IDs = %v, want [p2 p5 p9]", ids)
	}
}

func TestIDSet(t *testing.T) {
	s := new(Set)
	s.Add(1, 1)
	s.Add(64, 2)
	bits := s.IDSet()
	if !bits.Has(1) || !bits.Has(64) || bits.Len() != 2 {
		t.Errorf("IDSet = %v", bits)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := new(Set)
	s.Add(1, 1)
	c := s.Clone()
	c.Add(2, 2)
	c.Add(1, 9)
	if s.Has(2) {
		t.Error("Clone shares storage")
	}
	if got, _ := s.Get(1); got != 1 {
		t.Error("Clone mutation leaked into original")
	}
}

func TestClear(t *testing.T) {
	s := new(Set)
	s.Add(1, 1)
	s.Add(2, 2)
	s.Clear()
	if s.Len() != 0 {
		t.Error("Clear left entries")
	}
	s.Add(3, 3)
	if !s.Has(3) {
		t.Error("set unusable after Clear")
	}
}

func TestForEachStop(t *testing.T) {
	s := new(Set)
	s.Add(1, 1)
	s.Add(2, 2)
	s.Add(3, 3)
	n := 0
	s.ForEach(func(Entry) bool { n++; return false })
	if n != 1 {
		t.Errorf("ForEach visited %d after stop, want 1", n)
	}
}

func TestString(t *testing.T) {
	s := new(Set)
	s.Add(10, 5)
	s.Add(2, 7)
	if got := s.String(); got != "{⟨p2, 7⟩, ⟨p10, 5⟩}" {
		t.Errorf("String = %q", got)
	}
	if got := new(Set).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

func TestEntryString(t *testing.T) {
	e := Entry{ID: 3, Tag: 17}
	if got := e.String(); got != "⟨p3, 17⟩" {
		t.Errorf("Entry.String = %q", got)
	}
}

// --- Merge-guard semantics (Algorithm 1 lines 22 and 33) ---

func TestFresherUnknownID(t *testing.T) {
	susp, mist := new(Set), new(Set)
	if !Fresher(susp, mist, 4, 0) {
		t.Error("Fresher for unknown id = false; any info about an unknown id is fresh")
	}
	if !FresherOrEqual(susp, mist, 4, 0) {
		t.Error("FresherOrEqual for unknown id = false")
	}
}

func TestFresherStrict(t *testing.T) {
	susp, mist := new(Set), new(Set)
	susp.Add(4, 10)
	tests := []struct {
		incoming Tag
		want     bool
	}{
		{9, false},
		{10, false}, // suspicions do NOT win ties
		{11, true},
	}
	for _, tt := range tests {
		if got := Fresher(susp, mist, 4, tt.incoming); got != tt.want {
			t.Errorf("Fresher(incoming=%d) = %v, want %v", tt.incoming, got, tt.want)
		}
	}
}

func TestFresherOrEqualTieGoesToMistake(t *testing.T) {
	susp, mist := new(Set), new(Set)
	susp.Add(4, 10)
	tests := []struct {
		incoming Tag
		want     bool
	}{
		{9, false},
		{10, true}, // a mistake wins the tie against a suspicion
		{11, true},
	}
	for _, tt := range tests {
		if got := FresherOrEqual(susp, mist, 4, tt.incoming); got != tt.want {
			t.Errorf("FresherOrEqual(incoming=%d) = %v, want %v", tt.incoming, got, tt.want)
		}
	}
}

func TestFresherAgainstMistakeSet(t *testing.T) {
	susp, mist := new(Set), new(Set)
	mist.Add(4, 10)
	if Fresher(susp, mist, 4, 10) {
		t.Error("suspicion with equal tag beat an existing mistake")
	}
	if !Fresher(susp, mist, 4, 11) {
		t.Error("strictly newer suspicion rejected")
	}
	if FresherOrEqual(susp, mist, 4, 9) {
		t.Error("older mistake accepted")
	}
	if !FresherOrEqual(susp, mist, 4, 10) {
		t.Error("equal mistake rejected (mistake should be re-appliable)")
	}
}

func TestCurrentTagBothSets(t *testing.T) {
	// Defensive path: if an id were in both sets, the larger tag governs.
	susp, mist := new(Set), new(Set)
	susp.Add(4, 12)
	mist.Add(4, 8)
	if Fresher(susp, mist, 4, 12) {
		t.Error("incoming equal to max tag considered fresher")
	}
	if !Fresher(susp, mist, 4, 13) {
		t.Error("incoming above max tag rejected")
	}
	susp2, mist2 := new(Set), new(Set)
	susp2.Add(4, 8)
	mist2.Add(4, 12)
	if Fresher(susp2, mist2, 4, 9) {
		t.Error("mistake tag ignored when larger")
	}
}

// --- Property tests ---

// TestQuickModelConformance drives the dense Set and a map model with the
// same random Add/Remove/Clone/Clear operations, probing Get and Has after
// every step and comparing every read at the end. Ids straddle the first
// bitset word boundary, reach past 4096, and include invalid (negative)
// ids, which every operation must ignore. A clone is mutated after it is
// taken: neither side may see the other's later writes.
func TestQuickModelConformance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		draw := func() ident.ID {
			switch r.Intn(8) {
			case 0:
				return ident.ID(-1 - r.Intn(3))
			case 1:
				return ident.ID(4096 + r.Intn(200))
			case 2:
				return ident.ID(60 + r.Intn(10))
			default:
				return ident.ID(r.Intn(130))
			}
		}
		var s, clone Set
		model, cloneModel := mapModel{}, mapModel{}
		for step := 0; step < 300; step++ {
			id := draw()
			switch op := r.Intn(20); {
			case op < 10:
				tag := Tag(r.Uint64() >> r.Intn(64))
				s.Add(id, tag)
				if id.Valid() {
					model[id] = tag
				}
			case op < 17:
				_, had := model[id]
				if s.Remove(id) != had {
					t.Fatalf("seed %d step %d: Remove(%v) = %v, want %v", seed, step, id, !had, had)
				}
				delete(model, id)
			case op < 19:
				clone, cloneModel = s.Clone(), maps.Clone(model)
				clone.Add(id, 1)
				if id.Valid() {
					cloneModel[id] = 1
				}
				gone := draw()
				clone.Remove(gone)
				delete(cloneModel, gone)
			default:
				s.Clear()
				clear(model)
			}
			probe := draw()
			want, wok := model[probe]
			if got, ok := s.Get(probe); got != want || ok != wok || s.Has(probe) != wok {
				t.Fatalf("seed %d step %d: Get(%v) = %d,%v, want %d,%v", seed, step, probe, got, ok, want, wok)
			}
		}
		checkAgainstModel(t, "set", &s, model)
		checkAgainstModel(t, "clone", &clone, cloneModel)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFresherMonotone(t *testing.T) {
	// If incoming tag a is accepted and b > a, then b is accepted too.
	f := func(seed int64, a, b uint32) bool {
		if a > b {
			a, b = b, a
		}
		r := rand.New(rand.NewSource(seed))
		susp, mist := new(Set), new(Set)
		id := ident.ID(1)
		if r.Intn(2) == 0 {
			susp.Add(id, Tag(r.Intn(1000)))
		} else {
			mist.Add(id, Tag(r.Intn(1000)))
		}
		if Fresher(susp, mist, id, Tag(a)) && !Fresher(susp, mist, id, Tag(b)) {
			return false
		}
		if FresherOrEqual(susp, mist, id, Tag(a)) && !FresherOrEqual(susp, mist, id, Tag(b)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFresherImpliesFresherOrEqual(t *testing.T) {
	f := func(hasSusp bool, cur uint16, incoming uint16) bool {
		susp, mist := new(Set), new(Set)
		if hasSusp {
			susp.Add(2, Tag(cur))
		} else {
			mist.Add(2, Tag(cur))
		}
		if Fresher(susp, mist, 2, Tag(incoming)) && !FresherOrEqual(susp, mist, 2, Tag(incoming)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mapModel is the reference the dense Set is checked against: a plain map,
// walked in sorted id order.
type mapModel map[ident.ID]Tag

func (m mapModel) entries() []Entry {
	out := make([]Entry, 0, len(m))
	for id, t := range m {
		out = append(out, Entry{ID: id, Tag: t})
	}
	slices.SortFunc(out, func(a, b Entry) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// checkAgainstModel compares every read of s with the model.
func checkAgainstModel(t *testing.T, what string, s *Set, m mapModel) {
	t.Helper()
	want := m.entries()
	if got := s.Entries(); !slices.Equal(got, want) {
		t.Fatalf("%s: Entries = %v, want %v", what, got, want)
	}
	var walked []Entry
	s.ForEach(func(e Entry) bool {
		walked = append(walked, e)
		return true
	})
	if !slices.Equal(walked, want) {
		t.Fatalf("%s: ForEach visited %v, want %v", what, walked, want)
	}
	ids := make([]ident.ID, len(want))
	for i, e := range want {
		ids[i] = e.ID
	}
	if got := s.IDs(); !slices.Equal(got, ids) {
		t.Fatalf("%s: IDs = %v, want %v", what, got, ids)
	}
	if got := s.IDSet(); !got.Equal(ident.SetOf(ids...)) {
		t.Fatalf("%s: IDSet = %v, want %v", what, got, ids)
	}
	if s.Len() != len(m) {
		t.Fatalf("%s: Len = %d, want %d", what, s.Len(), len(m))
	}
}

func BenchmarkAddGet(b *testing.B) {
	s := new(Set)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := ident.ID(i % 128)
		s.Add(id, Tag(i))
		s.Get(id)
	}
}

func BenchmarkEntries(b *testing.B) {
	s := new(Set)
	for i := 0; i < 64; i++ {
		s.Add(ident.ID(i), Tag(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Entries()
	}
}
