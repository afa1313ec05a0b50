package hyper

import "fmt"

// Chain is the element type of a segment chain a paired View ranges
// over: a pointer-like value with a once-writable link to its
// successor. The hyperqueue instantiates it with *segment[T]; the zero
// value of S plays the role of the paper's null pointer.
type Chain[S any] interface {
	comparable
	// NextSeg returns the successor link (atomically, so a consumer can
	// chase links published by a producer).
	NextSeg() S
	// SetNextSeg publishes the successor link. The view algebra writes
	// it at most once per segment (invariant 5); Reduce asserts that.
	SetNextSeg(S)
}

// View is a (head, tail) pair over a chain of segments (§3.3).
//
// Each of Head and Tail is either local — a real segment value — or
// non-local: a marker that the corresponding end of the chain is shared
// with an adjacent view in program order. The paper represents
// non-local pointers by null; here each non-local pointer additionally
// carries a unique id so that the pairing discipline ("non-local
// pointers always occur in pairs and must match between successive
// views in program order") can be asserted at every reduction.
//
// The empty view ε is the zero value (Valid == false). A shared view
// with two non-local ends is distinct from ε, exactly as in the paper.
type View[S Chain[S]] struct {
	Head   S
	Tail   S
	HeadNL uint64 // pair id when head is non-local (head == zero)
	TailNL uint64 // pair id when tail is non-local (tail == zero)
	Valid  bool
}

func (v *View[S]) String() string {
	if !v.Valid {
		return "ε"
	}
	var zero S
	h, t := "h", "t"
	if v.Head == zero {
		h = fmt.Sprintf("NL%d", v.HeadNL)
	}
	if v.Tail == zero {
		t = fmt.Sprintf("NL%d", v.TailNL)
	}
	return fmt.Sprintf("(%s,%s)", h, t)
}

// Split implements split((s,s)) = ((s, pNL), (pNL, s)) (§3.3): it turns
// the local view on segment s into a head-only view and a tail-only
// view sharing a fresh non-local pair id. The head-only view is
// returned first.
func Split[S Chain[S]](s S, pairID uint64) (headOnly, tailOnly View[S]) {
	headOnly = View[S]{Head: s, TailNL: pairID, Valid: true}
	tailOnly = View[S]{HeadNL: pairID, Tail: s, Valid: true}
	return headOnly, tailOnly
}

// PairOps is the Ops implementation for paired chain views: the
// reduction links chains physically (or cancels a matching non-local
// pair) and asserts the pairing discipline.
type PairOps[S Chain[S]] struct{}

// Valid reports whether v is a non-ε view.
func (PairOps[S]) Valid(v *View[S]) bool { return v.Valid }

// Reduce implements reduce((h1,t1),(h2,t2)) = ((h1,t2), ε) (§3.3). The
// result replaces *v1 and *v2 becomes ε.
//
// Cases:
//  1. t1 and h2 local: the chains are concatenated by linking t1's
//     successor to h2's segment.
//  2. t1 and h2 non-local: they must be a matching pair (the inverse of
//     a split); the segments are already linked.
//  3. Either argument ε: the other is the result.
//
// Any other combination indicates a broken program-order discipline and
// panics; the property tests exercise that these cases never arise.
func (PairOps[S]) Reduce(v1, v2 *View[S]) {
	if !v2.Valid {
		return
	}
	if !v1.Valid {
		*v1 = *v2
		*v2 = View[S]{}
		return
	}
	var zero S
	switch {
	case v1.Tail != zero && v2.Head != zero:
		if v1.Tail.NextSeg() != zero {
			panic("hyperqueue: reduce would overwrite a next link (invariant 5 violated)")
		}
		v1.Tail.SetNextSeg(v2.Head)
	case v1.Tail == zero && v2.Head == zero:
		if v1.TailNL != v2.HeadNL {
			panic(fmt.Sprintf("hyperqueue: mismatched non-local pair in reduce: %d vs %d", v1.TailNL, v2.HeadNL))
		}
	default:
		panic(fmt.Sprintf("hyperqueue: invalid reduction %s + %s", v1.String(), v2.String()))
	}
	v1.Tail, v1.TailNL = v2.Tail, v2.TailNL
	*v2 = View[S]{}
}
