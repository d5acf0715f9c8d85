package rdb

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/xmldm"
)

// TestInsertSelectRoundTrip_Property: every inserted row is retrievable
// by primary key with exactly the coerced values, SELECT * returns all
// rows, and WHERE range predicates agree with a naive scan — with
// and without an index on the predicate column (the indexed and
// unindexed paths must agree).
func TestInsertSelectRoundTrip_Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := NewDatabase("p")
		db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, v INT, s VARCHAR)`)
		n := 5 + rng.Intn(40)
		type row struct {
			v int
			s string
		}
		model := map[int]row{}
		for i := 0; i < n; i++ {
			v := rng.Intn(100)
			s := fmt.Sprintf("s%d", rng.Intn(10))
			db.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d, %d, '%s')`, i, v, s))
			model[i] = row{v, s}
		}
		// Count matches.
		if c := len(db.MustExec(`SELECT id FROM t`).Rows); c != len(model) {
			t.Logf("seed %d: count %d vs model %d", seed, c, len(model))
			return false
		}

		// Point lookups through the pk index.
		for id, want := range model {
			rows := out(db.MustExec(fmt.Sprintf(`SELECT v, s FROM t WHERE id = %d`, id)))
			if len(rows) != 1 {
				t.Logf("seed %d: id %d rows = %d", seed, id, len(rows))
				return false
			}
			gv, _ := xmldm.ToInt(rows[0][0])
			if int(gv) != want.v || xmldm.Stringify(rows[0][1]) != want.s {
				t.Logf("seed %d: id %d got (%d,%s) want (%d,%s)", seed, id, gv, rows[0][1], want.v, want.s)
				return false
			}
		}

		// Range predicate: unindexed vs indexed column must agree with
		// the model.
		lo := rng.Intn(100)
		naive := 0
		for _, r := range model {
			if r.v >= lo {
				naive++
			}
		}
		q := fmt.Sprintf(`SELECT id FROM t WHERE v >= %d`, lo)
		b := len(db.MustExec(q).Rows)
		db.MustExec(`CREATE INDEX ON t (v)`)
		a := len(db.MustExec(q).Rows)
		if b != naive || a != naive {
			t.Logf("seed %d: range count naive=%d scan=%d indexed=%d", seed, naive, b, a)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestOrderByIsSorted_Property: ORDER BY output is sorted under the
// model's comparison, for random data including ties.
func TestOrderByIsSorted_Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := NewDatabase("p")
		db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
		n := 3 + rng.Intn(30)
		for i := 0; i < n; i++ {
			db.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, i, rng.Intn(8)))
		}
		desc := rng.Intn(2) == 0
		q := `SELECT v FROM t ORDER BY v`
		if desc {
			q += " DESC"
		}
		rows := out(db.MustExec(q))
		for i := 1; i < len(rows); i++ {
			c := xmldm.Compare(rows[i-1][0], rows[i][0])
			if desc && c < 0 || !desc && c > 0 {
				t.Logf("seed %d: out of order at %d (desc=%v)", seed, i, desc)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestLikeMatchesNaive_Property: the LIKE matcher agrees with a naive
// regexp-free reference built by brute force over short strings.
func TestLikeMatchesNaive_Property(t *testing.T) {
	alphabet := "ab%_"
	rng := rand.New(rand.NewSource(7))
	randStr := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(alphabet[rng.Intn(2)]) // data: only a, b
		}
		return sb.String()
	}
	randPat := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(alphabet[rng.Intn(4)])
		}
		return sb.String()
	}
	var naive func(p, s string) bool
	naive = func(p, s string) bool {
		if p == "" {
			return s == ""
		}
		switch p[0] {
		case '%':
			for i := 0; i <= len(s); i++ {
				if naive(p[1:], s[i:]) {
					return true
				}
			}
			return false
		case '_':
			return s != "" && naive(p[1:], s[1:])
		default:
			return s != "" && s[0] == p[0] && naive(p[1:], s[1:])
		}
	}
	for i := 0; i < 3000; i++ {
		p := randPat(rng.Intn(6))
		s := randStr(rng.Intn(8))
		if likeMatch(p, s) != naive(p, s) {
			t.Fatalf("likeMatch(%q, %q) = %v, naive = %v", p, s, likeMatch(p, s), naive(p, s))
		}
	}
}

// TestResultTextIsStringify_Property: Result.Text is a cell's export text
// — nil for NULL, else the cell's Stringify text as a String — for every
// column type and for rows stored by INSERT and by Insert, coerced inputs
// included ('007' into INT, numbers into FLOAT and VARCHAR, 'no' into
// BOOL, text into DATE, the floats -0, 0.1 and 1e21). Every arm of a
// SELECT (the shared row list, an indexed =, a residual WHERE, ORDER BY),
// with a select list of columns or *, answers the table's rows, whose
// texts INSERT stored.
func TestResultTextIsStringify_Property(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Each column's inputs: the value Insert takes, and the SQL INSERT's
	// spelling of it.
	type input struct {
		v   Value
		sql string
	}
	inputs := [][]input{
		{{xmldm.Int(-7), "-7"}, {xmldm.String("007"), "'007'"}, {xmldm.Float(3), "3.0"}, {xmldm.Int(1 << 40), "1099511627776"}},
		{{xmldm.Float(math.Copysign(0, -1)), "-0.0"}, {xmldm.Float(0.1), "0.1"}, {xmldm.Float(1e21), "'1e21'"},
			{xmldm.Int(5), "5"}, {xmldm.String("2.50"), "'2.50'"}},
		{{xmldm.String("a<b"), "'a<b'"}, {xmldm.String(""), "''"}, {xmldm.Int(42), "42"}, {xmldm.Float(0.1), "0.1"}},
		{{xmldm.Bool(true), "TRUE"}, {xmldm.String("no"), "'no'"}, {xmldm.Int(1), "1"}},
		{{xmldm.Date(time.Date(2001, 4, 2, 0, 0, 0, 0, time.UTC)), "'2001-04-02'"}, {xmldm.String("1999-12-31"), "'1999-12-31'"}},
	}
	for trial := 0; trial < 50; trial++ {
		db := NewDatabase("p")
		db.MustExec(`CREATE TABLE w (k INT PRIMARY KEY, i INT, f FLOAT, s VARCHAR, o BOOL, d DATE)`)
		n := 1 + rng.Intn(20)
		for k := 0; k < n; k++ {
			vals, lits := Row{xmldm.Int(k)}, []string{fmt.Sprint(k)}
			for _, in := range inputs {
				c := input{xmldm.Null{}, "NULL"}
				if rng.Intn(5) > 0 {
					c = in[rng.Intn(len(in))]
				}
				vals, lits = append(vals, c.v), append(lits, c.sql)
			}
			if rng.Intn(2) == 0 {
				if err := db.Insert("w", vals); err != nil {
					t.Fatal(err)
				}
			} else {
				db.MustExec("INSERT INTO w VALUES (" + strings.Join(lits, ", ") + ")")
			}
		}
		k := rng.Intn(n)
		for _, sql := range []string{
			`SELECT o, d, i, f, s, k FROM w`,
			fmt.Sprintf(`SELECT s, d, k FROM w WHERE k = %d`, k),
			`SELECT f, i, o FROM w WHERE s != 'a<b'`,
			`SELECT d, o, f, i FROM w ORDER BY f DESC, k`,
			`SELECT * FROM w`,
			fmt.Sprintf(`SELECT * FROM w WHERE k = %d ORDER BY i`, k),
			`SELECT i, f, s, o, d FROM w`,
		} {
			res, err := db.Exec(sql)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range res.Rows {
				for i := range res.Columns {
					cell, got := row[res.Pos(i)], res.Text(row, i)
					var want Value
					if cell.Kind() != xmldm.KindNull {
						want = xmldm.String(xmldm.Stringify(cell))
					}
					if got != want {
						t.Fatalf("trial %d, %s: column %s of %v has text %#v, want %#v", trial, sql, res.Columns[i], row, got, want)
					}
				}
			}
		}
	}
}
