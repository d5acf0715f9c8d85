package xmldm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Compare imposes a total preorder across all values, by value, with
// XPath-style weak typing: nodes compare through their atomized content,
// and strings that parse as numbers belong to the numeric class, so the
// XML-QL predicate $price > 100 behaves correctly whether $price carries
// Int(120), Float(120), String("120") (text content from a pattern
// binding), or the <price>120</price> element itself. The classes order
// Null < numeric < string < date < tuple < collection; within the string
// class comparison is lexicographic, within numeric it is by value, and
// composites compare lexicographically element-wise. Compare
// deliberately ignores document position: a node's Ord is its place in
// document order.
//
// The weak-typing consequence — String("007") equals Int(7) — is a
// deliberate data-integration choice: values crossing source boundaries
// arrive as text, and joins across sources must still match them.
func Compare(a, b Value) int {
	if a == nil {
		a = Null{}
	}
	if b == nil {
		b = Null{}
	}
	// Atomize nodes up front so that every comparison is value-based and
	// the order stays transitive across mixed node/atom operands.
	if n, ok := a.(*Node); ok {
		a = atomizeNode(n)
	}
	if n, ok := b.(*Node); ok {
		b = atomizeNode(n)
	}

	fa, na := numericValue(a)
	fb, nb := numericValue(b)
	ra, rb := classRank(a, na), classRank(b, nb)
	if ra != rb {
		return ra - rb
	}
	if na && nb {
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	}

	ka, kb := a.Kind(), b.Kind()
	if ka != kb {
		return int(ka) - int(kb)
	}
	switch ka {
	case KindString:
		sa, sb := string(a.(String)), string(b.(String))
		switch {
		case sa < sb:
			return -1
		case sa > sb:
			return 1
		default:
			return 0
		}
	case KindDate:
		ta, tb := time.Time(a.(Date)), time.Time(b.(Date))
		switch {
		case ta.Before(tb):
			return -1
		case ta.After(tb):
			return 1
		default:
			return 0
		}
	case KindTuple:
		return compareTuples(a.(*Tuple), b.(*Tuple))
	case KindCollection:
		return compareCollections(a.(*Collection), b.(*Collection))
	default:
		return 0
	}
}

// numericValue reports whether a value belongs to the numeric class and
// its numeric image: Bool, Int, Float (except NaN), and strings that
// parse as finite numbers.
func numericValue(v Value) (float64, bool) {
	switch x := v.(type) {
	case Bool:
		if x {
			return 1, true
		}
		return 0, true
	case Int:
		return float64(x), true
	case Float:
		f := float64(x)
		if math.IsNaN(f) {
			// NaN has no order; map it to -Inf so the order stays total
			// and deterministic.
			return math.Inf(-1), true
		}
		return f, true
	case String:
		s := strings.TrimSpace(string(x))
		if !mayBeNumber(s) {
			return 0, false
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil || math.IsNaN(f) {
			return 0, false
		}
		return f, true
	default:
		return 0, false
	}
}

// mayBeNumber reports whether s starts the way something ParseFloat
// accepts must: an optional sign, then a digit, a point, or inf or nan
// in any case (infinity starts with inf). ParseFloat allocates an error
// for every string it rejects, and most strings compared are plain text,
// names such as "New York" and "Irvine" included.
func mayBeNumber(s string) bool {
	if s != "" && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	if c := s[0]; '0' <= c && c <= '9' || c == '.' {
		return true
	}
	return len(s) >= 3 && (strings.EqualFold(s[:3], "inf") || strings.EqualFold(s[:3], "nan"))
}

// classRank orders the comparison classes: Null < numeric < string <
// date < tuple < collection.
func classRank(v Value, numeric bool) int {
	if numeric {
		return 1
	}
	switch v.Kind() {
	case KindNull:
		return 0
	case KindString:
		return 2
	case KindDate:
		return 3
	case KindTuple:
		return 4
	default:
		return 5
	}
}

// atomizeNode turns a node into the atom its text content denotes: a
// number if it parses as one, else a string.
func atomizeNode(n *Node) Value {
	t := n.Text()
	if !mayBeNumber(t) {
		return String(t)
	}
	if i, err := strconv.ParseInt(t, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil {
		return Float(f)
	}
	return String(t)
}

func compareTuples(a, b *Tuple) int {
	n := a.Len()
	if b.Len() < n {
		n = b.Len()
	}
	for i := 0; i < n; i++ {
		fa, fb := a.Field(i), b.Field(i)
		if fa.Name != fb.Name {
			if fa.Name < fb.Name {
				return -1
			}
			return 1
		}
		if c := Compare(fa.Value, fb.Value); c != 0 {
			return c
		}
	}
	return a.Len() - b.Len()
}

func compareCollections(a, b *Collection) int {
	n := a.Len()
	if b.Len() < n {
		n = b.Len()
	}
	for i := 0; i < n; i++ {
		if c := Compare(a.Item(i), b.Item(i)); c != 0 {
			return c
		}
	}
	return a.Len() - b.Len()
}

// Equal reports deep equality under Compare's semantics.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Hash returns a 64-bit hash consistent with Equal: Equal values hash
// identically. Numeric atoms hash through their float64 image, and nodes
// through their text, matching the cross-kind behaviour of Compare. It
// is FNV-1a, folded in place: no hasher object and no copy of a string's
// bytes, so hashing an atom does not allocate.
func Hash(v Value) uint64 { return hashInto(fnvOffset64, v) }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hashByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// hashWord folds a class tag and eight little-endian bytes.
func hashWord(h uint64, tag byte, bits uint64) uint64 {
	h = hashByte(h, tag)
	for i := 0; i < 8; i++ {
		h = hashByte(h, byte(bits>>(8*i)))
	}
	return h
}

func hashNumeric(h uint64, f float64) uint64 {
	if f == 0 {
		f = 0 // normalize -0 to +0
	}
	return hashWord(h, 1, math.Float64bits(f))
}

func hashInto(h uint64, v Value) uint64 {
	if v == nil {
		v = Null{}
	}
	switch x := v.(type) {
	case Null:
		return hashByte(h, 0)
	case Bool, Int, Float:
		f, _ := numericValue(x)
		return hashNumeric(h, f)
	case String:
		// Numeric strings hash through the numeric path so that Hash
		// stays consistent with Compare's weak typing.
		if f, ok := numericValue(x); ok {
			return hashNumeric(h, f)
		}
		return hashString(hashByte(h, 2), string(x))
	case Date:
		return hashWord(h, 3, uint64(time.Time(x).UnixNano()))
	case *Tuple:
		h = hashByte(h, 4)
		for _, f := range x.Fields() {
			h = hashInto(hashString(h, f.Name), f.Value)
		}
		return h
	case *Collection:
		h = hashByte(h, 5)
		for _, it := range x.Items() {
			h = hashInto(h, it)
		}
		return h
	case *Node:
		// Nodes hash by their atomized content so a node equal to an
		// atom under Compare hashes equal to it too.
		return hashInto(h, atomizeNode(x))
	default:
		return hashString(hashByte(h, 255), v.String())
	}
}

// Apply applies a comparison (=, !=, <, <=, >, >=) or arithmetic (+, -,
// *, /) operator: the one implementation, for the mediator and for a
// source a predicate is pushed to alike (§2.1). A comparison with Null is
// false; + concatenates when its left operand is non-numeric text; a
// result is an Int when both operands are int-like and it is whole, but /
// always gives a Float.
func Apply(op string, l, r Value) (Value, error) {
	var c int
	switch op {
	case "=", "!=", "<", "<=", ">", ">=":
		if l == nil || r == nil || l.Kind() == KindNull || r.Kind() == KindNull {
			return Bool(false), nil
		}
		c = Compare(l, r)
	case "+", "-", "*", "/":
		return arith(op, l, r)
	default:
		return nil, fmt.Errorf("xmldm: unknown operator %q", op)
	}
	switch op {
	case "=":
		return Bool(c == 0), nil
	case "!=":
		return Bool(c != 0), nil
	case "<":
		return Bool(c < 0), nil
	case "<=":
		return Bool(c <= 0), nil
	case ">":
		return Bool(c > 0), nil
	}
	return Bool(c >= 0), nil
}

func arith(op string, l, r Value) (Value, error) {
	lf, lok := ToFloat(l)
	if k := l.Kind(); op == "+" && !lok && (k == KindString || k == KindNode) {
		return String(Stringify(l) + Stringify(r)), nil
	}
	rf, rok := ToFloat(r)
	if !lok || !rok {
		return nil, fmt.Errorf("xmldm: arithmetic on non-numeric values %q, %q", Stringify(l), Stringify(r))
	}
	var f float64
	switch op {
	case "+":
		f = lf + rf
	case "-":
		f = lf - rf
	case "*":
		f = lf * rf
	default:
		if rf == 0 {
			return nil, fmt.Errorf("xmldm: division by zero")
		}
		return Float(lf / rf), nil
	}
	if f == float64(int64(f)) && intLike(l) && intLike(r) {
		return Int(int64(f)), nil
	}
	return Float(f), nil
}

// intLike reports whether v is an integer: an Int, a Bool, or text that
// parses as one.
func intLike(v Value) bool {
	switch v.(type) {
	case Int, Bool:
		return true
	case String, *Node:
		_, err := strconv.ParseInt(strings.TrimSpace(Stringify(v)), 10, 64)
		return err == nil
	}
	return false
}

// TextFunc applies lower, upper, trim or length to v's text: the scalar
// functions the mediator shares with a relational source. ok is false for
// any other name.
func TextFunc(name string, v Value) (Value, bool) {
	switch s := Stringify(v); name {
	case "lower":
		return String(strings.ToLower(s)), true
	case "upper":
		return String(strings.ToUpper(s)), true
	case "trim":
		return String(strings.TrimSpace(s)), true
	case "length":
		return Int(int64(len(s))), true
	}
	return nil, false
}
