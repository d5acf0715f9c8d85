package xmldm

import (
	"hash"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/testkit"
)

// TestNumericValueClassification pins the numeric class of strings: the
// first-byte filter in front of ParseFloat must not change it for any
// input.
func TestNumericValueClassification(t *testing.T) {
	cases := []struct {
		in      string
		numeric bool
		want    float64
	}{
		{"12", true, 12},
		{" 12 ", true, 12},
		{"\t-3.5\n", true, -3.5},
		{"+.5e3", true, 500},
		{".5", true, 0.5},
		{"007", true, 7},
		{"1e400", false, 0}, // out of range: ParseFloat reports an error
		{"0x1p-2", true, 0.25},
		{"1_000", true, 1000}, // ParseFloat takes Go-syntax underscores
		{"Inf", true, math.Inf(1)},
		{"-inf", true, math.Inf(-1)},
		{"+Infinity", true, math.Inf(1)},
		{"infinite", false, 0},
		{"nan", false, 0},
		{"NaN", false, 0},
		{"-", false, 0},
		{"+", false, 0},
		{".", false, 0},
		{"", false, 0},
		{"   ", false, 0},
		{"Seattle", false, 0},
		{"north", false, 0},
		{"12abc", false, 0},
		{"١٢", false, 0},
		{" 12 ", true, 12}, // TrimSpace trims Unicode space
	}
	for _, c := range cases {
		got, ok := numericValue(String(c.in))
		if ok != c.numeric || (ok && got != c.want) {
			t.Errorf("numericValue(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.numeric)
		}
		// The unfiltered definition, as the reference.
		ref, err := strconv.ParseFloat(strings.TrimSpace(c.in), 64)
		refOK := err == nil && !math.IsNaN(ref)
		if ok != refOK || (ok && got != ref) {
			t.Errorf("numericValue(%q) = %v, %v; ParseFloat says %v, %v", c.in, got, ok, ref, refOK)
		}
	}
}

func TestNumericValueNonNumericDoesNotAllocate(t *testing.T) {
	if testkit.Race {
		t.Skip("the race detector allocates")
	}
	a, b := Value(String("Seattle")), Value(String("Portland"))
	if n := testing.AllocsPerRun(100, func() {
		if Compare(a, b) == 0 {
			t.Fatal("distinct strings compared equal")
		}
	}); n != 0 {
		t.Errorf("Compare of two non-numeric strings allocates %v times, want 0", n)
	}
}

// TestAtomizeNodeClassification holds the same filter in front of node
// atomization to the unfiltered definition: an integer if the text parses
// as one, else a float if it parses as one, else the text.
func TestAtomizeNodeClassification(t *testing.T) {
	for _, text := range []string{"12", "-7", "+3", "1e3", ".5", "Inf", "nan", "0x10", "0x1p4", " 12", "12 ", "-", "", "Seattle", "north", "١٢"} {
		var want Value = String(text)
		if i, err := strconv.ParseInt(text, 10, 64); err == nil {
			want = Int(i)
		} else if f, err := strconv.ParseFloat(text, 64); err == nil {
			want = Float(f)
		}
		got := atomizeNode(&Node{Name: "n", Children: []Value{String(text)}})
		if f, ok := got.(Float); ok && math.IsNaN(float64(f)) {
			if w, ok := want.(Float); !ok || !math.IsNaN(float64(w)) {
				t.Errorf("atomizeNode(%q) = NaN, want %#v", text, want)
			}
			continue
		}
		if got != want {
			t.Errorf("atomizeNode(%q) = %#v, want %#v", text, got, want)
		}
	}
}

// hashValues is the table the Hash tests share: one weakly-typed
// equivalence class per line, plus values that belong to none.
func hashValues() []Value {
	b := NewBuilder()
	negZero := math.Copysign(0, -1)
	return []Value{
		Int(12), Float(12), String("12"), String(" 12 "), String("12.0"), b.Elem("n", "12"),
		Float(negZero), Float(0), Int(0), String("-0"), Bool(false),
		Bool(true), Int(1), String("1"), b.Elem("one", "1"),
		Null{}, nil,
		String(""), b.Elem("empty"),
		String("Seattle"), b.Elem("city", "Seattle"),
		Float(math.NaN()), Float(math.Inf(-1)),
		Date(time.Unix(986169600, 0)),
		NewTuple(Field{"a", Int(1)}, Field{"b", String("x")}), NewTuple(Field{"a", String("1.0")}, Field{"b", String("x")}),
		NewCollection(Int(1), String("x")), NewCollection(Bool(true), b.Elem("v", "x")),
		// The FuzzPartition seed corpus of internal/algebra.
		String("héllo wörld 💾"), String("costarring"), String("liquid"), String("a"), String("b"), String("key0"),
	}
}

// TestHashFollowsCompare: whatever Compare calls equal, across kinds,
// hashes alike — the property hash joins and partitioning stand on.
func TestHashFollowsCompare(t *testing.T) {
	vals := hashValues()
	equal := 0
	for _, a := range vals {
		for _, b := range vals {
			if Compare(a, b) != 0 {
				continue
			}
			equal++
			if Hash(a) != Hash(b) {
				t.Errorf("Compare(%#v, %#v) == 0 but Hash %x != %x", a, b, Hash(a), Hash(b))
			}
		}
	}
	if equal <= len(vals) {
		t.Fatalf("only %d equal pairs among %d values: the table lost its cross-kind classes", equal, len(vals))
	}
	b := NewBuilder()
	for _, pair := range [][2]Value{
		{Int(12), String("12.0")}, {String(" 12 "), b.Elem("n", "12")}, {Float(math.Copysign(0, -1)), Int(0)},
		{Bool(true), String("1")}, {String("Seattle"), b.Elem("city", "Seattle")},
	} {
		if Compare(pair[0], pair[1]) != 0 {
			t.Errorf("Compare(%#v, %#v) != 0: the table expects them equal", pair[0], pair[1])
		}
	}
}

// referenceHash is Hash as it was written over hash/fnv: a hasher
// object fed byte slices. The in-place fold must produce the same
// values, or partition assignment and EXPLAIN's rows/worker would move.
func referenceHash(v Value) uint64 {
	h := fnv.New64a()
	referenceHashInto(h, v)
	return h.Sum64()
}

func referenceHashInto(w hash.Hash64, v Value) {
	if v == nil {
		v = Null{}
	}
	var buf [9]byte
	word := func(tag byte, bits uint64) {
		buf[0] = tag
		for i := 0; i < 8; i++ {
			buf[1+i] = byte(bits >> (8 * i))
		}
		w.Write(buf[:9])
	}
	numeric := func(f float64) {
		if f == 0 {
			f = 0
		}
		word(1, math.Float64bits(f))
	}
	switch x := v.(type) {
	case Null:
		w.Write([]byte{0})
	case Bool, Int, Float:
		f, _ := numericValue(x)
		numeric(f)
	case String:
		if f, ok := numericValue(x); ok {
			numeric(f)
			return
		}
		w.Write([]byte{2})
		w.Write([]byte(x))
	case Date:
		word(3, uint64(time.Time(x).UnixNano()))
	case *Tuple:
		w.Write([]byte{4})
		for _, f := range x.Fields() {
			w.Write([]byte(f.Name))
			referenceHashInto(w, f.Value)
		}
	case *Collection:
		w.Write([]byte{5})
		for _, it := range x.Items() {
			referenceHashInto(w, it)
		}
	case *Node:
		referenceHashInto(w, atomizeNode(x))
	default:
		w.Write([]byte{255})
		w.Write([]byte(v.String()))
	}
}

func TestHashMatchesReference(t *testing.T) {
	for _, v := range hashValues() {
		if got, want := Hash(v), referenceHash(v); got != want {
			t.Errorf("Hash(%#v) = %x, hash/fnv reference %x", v, got, want)
		}
	}
}

func TestHashAtomsDoNotAllocate(t *testing.T) {
	if testkit.Race {
		t.Skip("the race detector allocates")
	}
	var sink uint64
	for _, v := range []Value{String("Seattle"), String(" 12.5 "), Int(1 << 40), Float(2.5), Null{}} {
		if n := testing.AllocsPerRun(100, func() { sink += Hash(v) }); n != 0 {
			t.Errorf("Hash(%#v) allocates %v times, want 0", v, n)
		}
	}
	_ = sink
}
