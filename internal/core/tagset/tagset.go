// Package tagset implements the counter-stamped process sets at the heart of
// the time-free failure-detector protocol.
//
// The protocol maintains two such sets per process: suspected_i and
// mistake_i. Each element is a pair ⟨id, counter⟩ where counter is the value
// of the originator's logical round counter when the piece of information was
// generated. The counter is a recency tag: when two pieces of information
// about the same process meet, the one with the larger tag wins, and — per
// the paper — a *mistake* (refutation) wins a tie against a *suspicion*.
// These merge laws are what prevents stale suspicions from circulating
// forever in the flooding scheme.
//
// A Set is dense: a presence bitset (ident.Set) plus a tag slice indexed by
// id, so a lookup is an index and a bit test, and every walk runs in
// ascending id order without sorting. It makes the same assumption as
// ident.Set, that ids are small non-negative integers: memory grows with the
// largest id ever added, not with the number of entries. Callers that take
// ids from other processes must bound them first, as core.Detector does
// with core.MaxID.
package tagset

import (
	"fmt"
	"slices"
	"strings"

	"asyncfd/internal/ident"
)

// Tag is the logical counter stamped on each piece of suspicion/mistake
// information. Tags only grow; they are never compared across processes
// except through the merge rules below.
type Tag uint64

// Entry is one ⟨id, tag⟩ pair.
type Entry struct {
	ID  ident.ID
	Tag Tag
}

// String renders the entry like the paper's ⟨p3, 17⟩.
func (e Entry) String() string {
	return fmt.Sprintf("⟨%v, %d⟩", e.ID, uint64(e.Tag))
}

// Set is a set of ⟨id, tag⟩ pairs with at most one entry per id. The zero
// value is an empty set ready for use. Set is not safe for concurrent use.
type Set struct {
	present ident.Set
	tags    []Tag // tags[id] is meaningful only while present has id
}

// Add implements the paper's Add(set, ⟨id, counter⟩): it inserts ⟨id, tag⟩,
// replacing any existing entry for id regardless of its tag. Callers are
// responsible for recency checks; see Fresher/FresherOrEqual for the
// guards used by task T2.
func (s *Set) Add(id ident.ID, tag Tag) {
	if !id.Valid() {
		return
	}
	if i := int(id); i >= len(s.tags) {
		s.tags = slices.Grow(s.tags, i+1-len(s.tags))[:i+1]
	}
	s.present.Add(id)
	s.tags[id] = tag
}

// Remove deletes the entry for id, reporting whether one was present.
func (s *Set) Remove(id ident.ID) bool {
	if !s.present.Has(id) {
		return false
	}
	s.present.Remove(id)
	return true
}

// Get returns the tag associated with id.
func (s *Set) Get(id ident.ID) (Tag, bool) {
	if !s.present.Has(id) {
		return 0, false
	}
	return s.tags[id], true
}

// Has reports whether id has an entry.
func (s *Set) Has(id ident.ID) bool { return s.present.Has(id) }

// Len returns the number of entries.
func (s *Set) Len() int { return s.present.Len() }

// Clear removes all entries.
func (s *Set) Clear() { s.present.Clear() }

// Clone returns an independent copy.
func (s *Set) Clone() Set {
	return Set{present: s.present.Clone(), tags: slices.Clone(s.tags)}
}

// Entries returns the entries sorted by id (deterministic order for messages
// and tests).
func (s *Set) Entries() []Entry {
	out := make([]Entry, 0, s.Len())
	s.present.ForEach(func(id ident.ID) bool {
		out = append(out, Entry{ID: id, Tag: s.tags[id]})
		return true
	})
	return out
}

// IDs returns the ids present, sorted ascending.
func (s *Set) IDs() []ident.ID { return s.present.IDs() }

// IDSet returns the ids present as a bitset.
func (s *Set) IDSet() ident.Set { return s.present.Clone() }

// ForEach visits entries in ascending id order. If fn returns false the
// iteration stops.
func (s *Set) ForEach(fn func(Entry) bool) {
	s.present.ForEach(func(id ident.ID) bool {
		return fn(Entry{ID: id, Tag: s.tags[id]})
	})
}

// String renders the set with entries sorted by id.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range s.Entries() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e.String())
	}
	b.WriteByte('}')
	return b.String()
}

// Fresher reports whether information tagged incoming about id is strictly
// more recent than whatever suspected and mistake currently record about id.
// This is the guard of Algorithm 1 line 22 (suspicion loop): the receiver
// takes a suspicion into account only if the id is unknown to both sets or
// the known tag is strictly smaller.
func Fresher(suspected, mistake *Set, id ident.ID, incoming Tag) bool {
	cur, ok := currentTag(suspected, mistake, id)
	return !ok || cur < incoming
}

// FresherOrEqual is the guard of Algorithm 1 line 33 (mistake loop): a
// mistake wins ties, so an incoming mistake is applied when the known tag is
// smaller or equal.
func FresherOrEqual(suspected, mistake *Set, id ident.ID, incoming Tag) bool {
	cur, ok := currentTag(suspected, mistake, id)
	return !ok || cur <= incoming
}

// currentTag returns the tag recorded for id across the pair of sets. At
// most one of the two sets holds id at any time in the protocol; if an
// invariant violation ever put id in both, the larger tag wins.
func currentTag(suspected, mistake *Set, id ident.ID) (Tag, bool) {
	st, sok := suspected.Get(id)
	mt, mok := mistake.Get(id)
	switch {
	case sok && mok:
		if st > mt {
			return st, true
		}
		return mt, true
	case sok:
		return st, true
	case mok:
		return mt, true
	default:
		return 0, false
	}
}
