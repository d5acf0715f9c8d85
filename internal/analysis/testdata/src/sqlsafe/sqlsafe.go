// Corpus for the sqlsafe analyzer: strings derived from XML-QL query
// nodes (all attacker-chosen) flowing into SQL sinks — a Fragment-style
// SQL field or an internal/rdb Exec call — with and without passing
// through a quoting helper. The map-keyed variable flow mirrors the
// real finding in sqlgen's projection-alias code.
package sqlsafe

import (
	"strings"

	"repro/internal/rdb"
	"repro/internal/xmlql"
)

type fragment struct{ SQL string }

// Corpus-local quoting helpers, recognized by name.
func sqlString(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

func sqlIdent(s string) string { return strings.Map(identRune, s) }

func identRune(r rune) rune {
	if r == '_' || ('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z') || ('0' <= r && r <= '9') {
		return r
	}
	return '_'
}

// ---- flagged ----

func rawVariable(v *xmlql.VarContent) *fragment {
	f := &fragment{}
	f.SQL = "SELECT " + v.Var + " FROM t" // want "query-derived string reaches the generated SQL statement"
	return f
}

func rawThroughBuilder(c *xmlql.TextContent) *fragment {
	var sb strings.Builder
	sb.WriteString("SELECT x FROM t WHERE x = ")
	sb.WriteString(c.Text) // taints sb
	f := &fragment{}
	f.SQL = sb.String() // want "query-derived string reaches the generated SQL statement"
	return f
}

// The sqlgen shape: variable names become map keys, are recovered by
// ranging over the map, and reach the statement through a join.
func rawMapKeys(pats []*xmlql.VarContent) *fragment {
	cols := map[string]string{}
	for _, p := range pats {
		cols[p.Var] = "safe_col"
	}
	var names []string
	for v := range cols {
		names = append(names, v)
	}
	f := &fragment{}
	f.SQL = "SELECT " + strings.Join(names, ", ") + " FROM t" // want "query-derived string reaches the generated SQL statement"
	return f
}

func rawExec(db *rdb.Database, tag *xmlql.TagTest) error {
	_, err := db.Exec("SELECT * FROM " + tag.Name) // want "query-derived string reaches a relational Exec/Query call"
	return err
}

// The key-list shape: values collected at run time joined into an IN
// list. Joining them bare is an injection however they are delimited.
func rawKeyList(keys []*xmlql.TextContent) *fragment {
	var lits []string
	for _, k := range keys {
		lits = append(lits, "'"+k.Text+"'")
	}
	f := &fragment{}
	f.SQL = "SELECT x FROM t WHERE x IN (" + strings.Join(lits, ", ") + ")" // want "query-derived string reaches the generated SQL statement"
	return f
}

// ---- clean ----

// sqlgen.Fragment.KeyedSQL's shape: every key through sqlString on its
// way into the builder.
func quotedKeyList(keys []*xmlql.TextContent) *fragment {
	var sb strings.Builder
	sb.WriteString("SELECT x FROM t WHERE x IN (")
	for i, k := range keys {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(sqlString(k.Text))
	}
	sb.WriteString(")")
	f := &fragment{}
	f.SQL = sb.String()
	return f
}

func quotedLiteral(c *xmlql.TextContent) *fragment {
	f := &fragment{}
	f.SQL = "SELECT x FROM t WHERE x = " + sqlString(c.Text)
	return f
}

func identAlias(v *xmlql.VarContent) *fragment {
	f := &fragment{}
	f.SQL = "SELECT c AS " + sqlIdent("v_"+strings.ToLower(v.Var)) + " FROM t"
	return f
}

func quotedExec(db *rdb.Database, tag *xmlql.TagTest) error {
	_, err := db.Exec("SELECT * FROM " + sqlIdent(tag.Name))
	return err
}

// Reading map VALUES is clean even when the map's keys are tainted:
// the key bit does not leak through a value read.
func mapValuesClean(pats []*xmlql.VarContent) *fragment {
	cols := map[string]string{}
	for _, p := range pats {
		cols[p.Var] = "safe_col"
	}
	var names []string
	for _, col := range cols {
		names = append(names, col)
	}
	f := &fragment{}
	f.SQL = "SELECT " + strings.Join(names, ", ") + " FROM t"
	return f
}

// A strong update to a clean value clears the variable's taint.
func reassigned(v *xmlql.VarContent) *fragment {
	name := v.Var
	name = "constant"
	f := &fragment{}
	f.SQL = "SELECT " + name + " FROM t"
	return f
}

// Untainted inputs (catalog descriptors, request parameters) may flow
// to Exec freely.
func nativeExec(db *rdb.Database, native string) error {
	_, err := db.Exec(native)
	return err
}
