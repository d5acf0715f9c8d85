package algebra

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/testkit"
	"repro/internal/xmldm"
	"repro/internal/xmlparse"
	"repro/internal/xmlql"
)

// The construct implementation the compiled program replaced, kept as
// the reference: a walk of the template, one allocation per element,
// child list and attribute list, numbered by Finalize afterwards. Its
// tuple arm copies, as the program's node sink does; the original
// adopted the tuple's nodes in place.

func refBuildResult(ctx *Context, tmpl *xmlql.TmplElem, b Binding) (*xmldm.Node, error) {
	n, err := refBuildElem(ctx, tmpl, b)
	if err != nil {
		return nil, err
	}
	xmldm.Finalize(n)
	return n, nil
}

func refBuildElem(ctx *Context, tmpl *xmlql.TmplElem, b Binding) (*xmldm.Node, error) {
	name := tmpl.Tag
	if tmpl.TagVar != "" {
		v, ok := b.Get(tmpl.TagVar)
		if !ok {
			return nil, fmt.Errorf("algebra: construct tag variable $%s is unbound", tmpl.TagVar)
		}
		name = xmldm.Stringify(v)
		if name == "" {
			return nil, fmt.Errorf("algebra: construct tag variable $%s is empty", tmpl.TagVar)
		}
	}
	n := &xmldm.Node{Name: name}
	if len(tmpl.Attrs) > 0 {
		n.Attrs = make([]xmldm.Attr, 0, len(tmpl.Attrs))
	}
	for _, a := range tmpl.Attrs {
		v, err := Eval(ctx, a.Value, b)
		if err != nil {
			return nil, err
		}
		n.Attrs = append(n.Attrs, xmldm.Attr{Name: a.Name, Value: xmldm.Stringify(v)})
	}
	if len(tmpl.Content) > 0 {
		n.Children = make([]xmldm.Value, 0, len(tmpl.Content))
	}
	for _, item := range tmpl.Content {
		switch it := item.(type) {
		case *xmlql.TmplChild:
			child, err := refBuildElem(ctx, it.Elem, b)
			if err != nil {
				return nil, err
			}
			child.Parent = n
			n.Children = append(n.Children, child)
		case *xmlql.TmplText:
			n.Children = append(n.Children, xmldm.String(it.Text))
		case *xmlql.TmplExpr:
			v, err := Eval(ctx, it.Expr, b)
			if err != nil {
				return nil, err
			}
			refSpliceValue(n, v)
		case *xmlql.TmplQuery:
			if ctx == nil || ctx.SubqueryEval == nil {
				return nil, fmt.Errorf("algebra: nested query requires a subquery evaluator")
			}
			vals, err := ctx.SubqueryEval(it.Query, b)
			if err != nil {
				return nil, err
			}
			for _, v := range vals {
				refSpliceValue(n, v)
			}
		default:
			return nil, fmt.Errorf("algebra: unknown template content %T", item)
		}
	}
	return n, nil
}

func refSpliceValue(n *xmldm.Node, v xmldm.Value) {
	switch x := v.(type) {
	case nil, xmldm.Null:
	case *xmldm.Node:
		c := CopyNode(x)
		c.Parent = n
		n.Children = append(n.Children, c)
	case *xmldm.Collection:
		for _, it := range x.Items() {
			refSpliceValue(n, it)
		}
	case *xmldm.Tuple:
		c := CopyNode(xmldm.TupleToNode("tuple", x))
		c.Parent = n
		n.Children = append(n.Children, c)
	case xmldm.String:
		if x != "" {
			n.Children = append(n.Children, v)
		}
	default:
		n.Children = append(n.Children, xmldm.String(v.String()))
	}
}

// constructCtx evaluates what the generated templates call: boom($s)
// fails when $s is empty or unbound — an Eval error part way through a
// result — and a nested query fails without $i, else splices "sub", $e
// and $c.
func constructCtx() *Context {
	return &Context{
		Funcs: map[string]func([]xmldm.Value) (xmldm.Value, error){
			"boom": func(args []xmldm.Value) (xmldm.Value, error) {
				if xmldm.Stringify(args[0]) == "" {
					return nil, errors.New("boom")
				}
				return args[0], nil
			},
		},
		SubqueryEval: func(_ *xmlql.Query, outer Binding) ([]xmldm.Value, error) {
			if _, ok := outer.Get("i"); !ok {
				return nil, errors.New("subquery failed")
			}
			e, _ := outer.Get("e")
			c, _ := outer.Get("c")
			return []xmldm.Value{xmldm.String("sub"), e, c}, nil
		},
	}
}

var genConstructVars = []string{"s", "n", "i", "e", "c", "u", "missing"}

func genConstructExpr(rng *rand.Rand) xmlql.Expr {
	switch rng.Intn(12) {
	case 0:
		return &xmlql.FuncExpr{Name: "boom", Args: []xmlql.Expr{&xmlql.VarExpr{Name: "s"}}}
	case 1:
		return &xmlql.LitExpr{Value: 2.5}
	default:
		return &xmlql.VarExpr{Name: genConstructVars[rng.Intn(len(genConstructVars))]}
	}
}

func genTemplate(rng *rand.Rand, depth int) *xmlql.TmplElem {
	t := &xmlql.TmplElem{Tag: genNames[rng.Intn(len(genNames))]}
	if rng.Intn(8) == 0 {
		t.Tag, t.TagVar = "", "t"
	}
	for _, name := range []string{"k", "m"} {
		if rng.Intn(3) == 0 {
			t.Attrs = append(t.Attrs, xmlql.TmplAttr{Name: name, Value: genConstructExpr(rng)})
		}
	}
	items := rng.Intn(4)
	for i := 0; i < items; i++ {
		switch k := rng.Intn(10); {
		case k <= 2 && depth > 0:
			t.Content = append(t.Content, &xmlql.TmplChild{Elem: genTemplate(rng, depth-1)})
		case k <= 3:
			t.Content = append(t.Content, &xmlql.TmplText{Text: genValues[rng.Intn(len(genValues))]})
		case k <= 8:
			t.Content = append(t.Content, &xmlql.TmplExpr{Expr: genConstructExpr(rng)})
		default:
			t.Content = append(t.Content, &xmlql.TmplQuery{Query: &xmlql.Query{}})
		}
	}
	return t
}

// genConstructBinding binds each variable a template may splice, most of
// the time: $t a tag name (sometimes empty), $s a string (sometimes
// empty), $n Null, $i an Int, $e an element, $c a collection of all of
// those, $u a tuple holding a string, an element, a collection and Null.
func genConstructBinding(rng *rand.Rand) Binding {
	var fields []xmldm.Field
	add := func(name string, v xmldm.Value) {
		if rng.Intn(6) > 0 {
			fields = append(fields, xmldm.Field{Name: name, Value: v})
		}
	}
	tag := genNames[rng.Intn(len(genNames))]
	if rng.Intn(10) == 0 {
		tag = ""
	}
	add("t", xmldm.String(tag))
	add("s", xmldm.String(genValues[rng.Intn(len(genValues))]))
	add("n", xmldm.Null{})
	add("i", xmldm.Int(int64(rng.Intn(100))))
	add("e", genDoc(rng, 2))
	add("c", xmldm.NewCollection(xmldm.String("c"), genDoc(rng, 1), xmldm.Null{}, xmldm.Int(7), xmldm.String("")))
	add("u", xmldm.NewTuple(
		xmldm.Field{Name: "f", Value: xmldm.String(genValues[rng.Intn(len(genValues))])},
		xmldm.Field{Name: "g", Value: genDoc(rng, 1)},
		xmldm.Field{Name: "h", Value: xmldm.NewCollection(genDoc(rng, 0), xmldm.Int(3))},
		xmldm.Field{Name: "z", Value: xmldm.Null{}},
	))
	return xmldm.NewTuple(fields...)
}

// collectNodes adds every element reachable from v to set.
func collectNodes(v xmldm.Value, set map[*xmldm.Node]bool) {
	switch x := v.(type) {
	case *xmldm.Node:
		x.Walk(func(n *xmldm.Node) bool { set[n] = true; return true })
	case *xmldm.Collection:
		for _, it := range x.Items() {
			collectNodes(it, set)
		}
	case *xmldm.Tuple:
		for _, f := range x.Fields() {
			collectNodes(f.Value, set)
		}
	}
}

// dumpTree renders what DeepEqual compares and String does not show.
func dumpTree(n *xmldm.Node) string {
	if n == nil {
		return "<nil>"
	}
	var sb strings.Builder
	n.Walk(func(e *xmldm.Node) bool {
		parent := "-"
		if e.Parent != nil {
			parent = fmt.Sprintf("%s#%d", e.Parent.Name, e.Parent.Ord)
		}
		fmt.Fprintf(&sb, "%s#%d parent=%s attrs=%v\n", e.Name, e.Ord, parent, e.Attrs)
		return true
	})
	return sb.String() + n.String()
}

type constructTally struct{ built, failed, partial, tuples, refills, emptied int }

func (t *constructTally) add(o constructTally) {
	t.built += o.built
	t.failed += o.failed
	t.partial += o.partial
	t.tuples += o.tuples
	t.refills += o.refills
	t.emptied += o.emptied
}

// constructDraw is one drawn case: a template compiled compact and
// indented by 2, up to six bindings, every element the bindings hold, and
// the reference result or error of each binding.
type constructDraw struct {
	ctx     *Context
	bs      []Binding
	inputs  map[*xmldm.Node]bool
	progs   []*Program
	want    []*xmldm.Node
	wantErr []error
}

func drawConstructCase(rng *rand.Rand) constructDraw {
	tmpl, bs, inputs := drawConstruct(rng)
	ctx := constructCtx()
	want, wantErr := refBuildAll(ctx, tmpl, bs)
	progs := []*Program{CompileProgram(tmpl, 0), CompileProgram(tmpl, 2)}
	return constructDraw{ctx: ctx, bs: bs, inputs: inputs, progs: progs, want: want, wantErr: wantErr}
}

func sameErr(got, want error) bool {
	return (got == nil) == (want == nil) && (got == nil || got.Error() == want.Error())
}

// checkConstruct draws one case and holds both sinks of its program to
// the reference (checkNodeSink, then checkByteSink).
func checkConstruct(t testing.TB, rng *rand.Rand) constructTally {
	t.Helper()
	d := drawConstructCase(rng)
	tally := checkNodeSink(t, d)
	tally.add(checkByteSink(t, d))
	return tally
}

// checkNodeSink holds the node sink (Builder) to the reference at rows 1,
// fewer than the bindings (the refill path), exactly the bindings and
// more, alternating the two programs: the same error, or a tree deep-equal
// to the reference's — names, attributes, children, parents and ordinals —
// that shares no element with the bindings. Every result is compared
// after the last Build, so a result clobbered by a later one from the
// same slab shows.
func checkNodeSink(t testing.TB, d constructDraw) constructTally {
	t.Helper()
	ctx, bs, inputs, progs, want, wantErr := d.ctx, d.bs, d.inputs, d.progs, d.want, d.wantErr
	var tally constructTally
	for k, rows := range []int{1, (len(bs) + 1) / 2, len(bs), len(bs) + 2} {
		if rows < len(bs) {
			tally.refills++
		}
		bld := progs[k%2].Builder(rows)
		got := make([]*xmldm.Node, len(bs))
		gotErr := make([]error, len(bs))
		for i, b := range bs {
			got[i], gotErr[i] = bld.Build(ctx, b)
		}
		for i := range bs {
			if !sameErr(gotErr[i], wantErr[i]) {
				t.Fatalf("rows=%d binding %d: error %v, want %v", rows, i, gotErr[i], wantErr[i])
			}
			if wantErr[i] != nil {
				tally.failed++
				continue
			}
			tally.built++
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("rows=%d binding %d %v:\nbuilt:\n%s\nreference:\n%s", rows, i, bs[i], dumpTree(got[i]), dumpTree(want[i]))
			}
			got[i].Walk(func(n *xmldm.Node) bool {
				if inputs[n] {
					t.Fatalf("rows=%d binding %d: the result holds a bound element <%s> itself", rows, i, n.Name)
				}
				if n.Name == "tuple" {
					tally.tuples++
				}
				return true
			})
		}
	}
	return tally
}

// checkByteSink holds the byte sink (Append) to the reference, writing
// every binding into one document the way the engine streams an answer:
// after each binding the document holds exactly what WriteChild of the
// reference results wrote, and a failed binding adds nothing, also when
// the program failed part way through writing it. It also holds the two
// sinks against each other: WriteChild of what Build built is what
// Append wrote.
func checkByteSink(t testing.TB, d constructDraw) constructTally {
	t.Helper()
	ctx, bs, progs, want, wantErr := d.ctx, d.bs, d.progs, d.want, d.wantErr
	var tally constructTally
	for _, prog := range progs {
		got, ref := xmlparse.NewBuffer(), xmlparse.NewBuffer()
		got.StartDocument(prog.indent)
		ref.StartDocument(prog.indent)
		for i, b := range bs {
			err := got.AppendChild(func(dst []byte) ([]byte, error) {
				out, err := prog.Append(dst, ctx, b)
				if err != nil && len(out) > len(dst) {
					tally.partial++
				}
				return out, err
			})
			if !sameErr(err, wantErr[i]) {
				t.Fatalf("indent %d binding %d: error %v, want %v", prog.indent, i, err, wantErr[i])
			}
			if err == nil {
				ref.WriteChild(want[i])
				want[i].Walk(func(n *xmldm.Node) bool {
					if len(n.Children) == 0 {
						tally.emptied++
					}
					return true
				})
				built, err := prog.Builder(1).Build(ctx, b)
				if err != nil {
					t.Fatalf("indent %d binding %d: Append wrote it, Build fails: %v", prog.indent, i, err)
				}
				tree, appended := xmlparse.NewBuffer(), xmlparse.NewBuffer()
				tree.StartDocument(prog.indent)
				appended.StartDocument(prog.indent)
				tree.WriteChild(built)
				appended.AppendChild(func(dst []byte) ([]byte, error) { return prog.Append(dst, ctx, b) })
				if w, a := string(tree.Bytes()), string(appended.Bytes()); w != a {
					t.Fatalf("indent %d binding %d %v:\nWriteChild of Build:\n%s\nAppend:\n%s", prog.indent, i, b, w, a)
				}
				tree.Release()
				appended.Release()
			}
			if g, w := string(got.Bytes()), string(ref.Bytes()); g != w {
				t.Fatalf("indent %d binding %d %v:\nprogram:\n%s\nreference:\n%s", prog.indent, i, b, g, w)
			}
		}
		got.Release()
		ref.Release()
	}
	return tally
}

// drawConstruct draws one template and up to six bindings, and collects
// every element the bindings hold.
func drawConstruct(rng *rand.Rand) (*xmlql.TmplElem, []Binding, map[*xmldm.Node]bool) {
	tmpl := genTemplate(rng, 3)
	bs := make([]Binding, 1+rng.Intn(6))
	inputs := map[*xmldm.Node]bool{}
	for i := range bs {
		bs[i] = genConstructBinding(rng)
		collectNodes(bs[i], inputs)
	}
	return tmpl, bs, inputs
}

// refBuildAll builds the reference result of each binding.
func refBuildAll(ctx *Context, tmpl *xmlql.TmplElem, bs []Binding) ([]*xmldm.Node, []error) {
	want := make([]*xmldm.Node, len(bs))
	wantErr := make([]error, len(bs))
	for i, b := range bs {
		want[i], wantErr[i] = refBuildResult(ctx, tmpl, b)
	}
	return want, wantErr
}

// The two properties below run over random templates — literal and
// variable tags, attributes, literal text, spliced strings, empty
// strings, Null, Ints, elements, collections and tuples, nested queries,
// nested elements — and random bindings, including the error paths
// (unbound or empty tag variable, an Eval error and a failing nested
// query part way through a result), over the FuzzConstruct seeds and 500
// more. Each sink of the one compiled program is held to the same
// reference; FuzzConstruct drives both sinks on every draw.

// TestBuilderEqualsReference_Property: the node sink builds what the
// reference builds (checkNodeSink).
func TestBuilderEqualsReference_Property(t *testing.T) {
	var sum constructTally
	for seed := int64(0); seed < 500; seed++ {
		sum.add(checkNodeSink(t, drawConstructCase(rand.New(rand.NewSource(seed)))))
	}
	sum.add(checkNodeSink(t, drawConstructCase(rand.New(rand.NewSource(20010402)))))
	t.Logf("%+v", sum)
	if sum.built < 2000 || sum.failed < 300 || sum.tuples < 200 || sum.refills < 500 {
		t.Fatalf("%+v: the generator no longer exercises the node sink", sum)
	}
}

// TestProgramEqualsReference_Property: the byte sink writes what the
// reference writes, and what the node sink built writes the same bytes
// (checkByteSink).
func TestProgramEqualsReference_Property(t *testing.T) {
	var sum constructTally
	for seed := int64(0); seed < 500; seed++ {
		sum.add(checkByteSink(t, drawConstructCase(rand.New(rand.NewSource(seed)))))
	}
	sum.add(checkByteSink(t, drawConstructCase(rand.New(rand.NewSource(20010402)))))
	t.Logf("%+v", sum)
	if sum.partial < 100 || sum.emptied < 500 {
		t.Fatalf("%+v: the generator no longer exercises the byte sink", sum)
	}
}

// FuzzConstruct runs the property's generator from fuzzed seeds.
func FuzzConstruct(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 20010402} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkConstruct(t, rand.New(rand.NewSource(seed)))
	})
}

const bulkExportTemplate = `WHERE <a>$q</a> IN "s"
	CONSTRUCT <row id=$i><contact><name>$w</name><city>$c</city></contact><status><tier>$t</tier></status></row>`

// TestBuilderAllocatesThreeSlabs pins the point of the node sink: a
// result of bulk-export's template, built through a program compiled
// once as the engine builds a materialized answer, is three allocations
// (elements, child slots, attributes), and a run of results is three for
// all of them and the Builder.
func TestBuilderAllocatesThreeSlabs(t *testing.T) {
	if testkit.Race {
		t.Skip("the race detector allocates")
	}
	tmpl := xmlql.MustParse(bulkExportTemplate).Construct
	b := bind("i", xmldm.String("7"), "w", xmldm.String("Ada"), "c", xmldm.String("London"), "t", xmldm.String("gold"))
	ctx := &Context{}
	prog := CompileProgram(tmpl, 0)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := prog.Builder(1).Build(ctx, b); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("one result allocates %v times, want 3", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		bld := prog.Builder(100)
		for i := 0; i < 100; i++ {
			if _, err := bld.Build(ctx, b); err != nil {
				t.Fatal(err)
			}
		}
	}); n > 4 {
		t.Errorf("100 results allocate %v times, want 3 slabs and the builder", n)
	}
}

// TestProgramAllocatesNothingPerRow pins the program's point: compiled
// once, it writes bulk-export's template under 2000 bindings into a
// buffer that has room without allocating at all — no tree, no string.
func TestProgramAllocatesNothingPerRow(t *testing.T) {
	if testkit.Race {
		t.Skip("the race detector allocates")
	}
	tmpl := xmlql.MustParse(bulkExportTemplate).Construct
	b := bind("i", xmldm.String("7"), "w", xmldm.String("Ada & Co"), "c", xmldm.String("London"), "t", xmldm.String("gold"))
	ctx := &Context{}
	for _, indent := range []int{0, 2} {
		prog := CompileProgram(tmpl, indent)
		var dst []byte
		write := func() {
			dst = dst[:0]
			for i := 0; i < 2000; i++ {
				var err error
				if dst, err = prog.Append(dst, ctx, b); err != nil {
					t.Fatal(err)
				}
			}
		}
		write() // grows dst once
		if n := testing.AllocsPerRun(10, write); n != 0 {
			t.Errorf("indent %d: 2000 rows allocate %v times, want 0", indent, n)
		}
	}
}
