package xmldm

import (
	"math"
	"strconv"
	"strings"
	"testing"

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
