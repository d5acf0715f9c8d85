package server

import (
	"context"
	"errors"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rdb"
	"repro/internal/sources"
	"repro/internal/xmldm"
	"repro/internal/xmlparse"
)

// newStreamServer builds a deployment without a result cache, so a plain
// /query answer is serialized while it is built. Its data needs escaping
// (names with markup characters and a tab, a city with a quote), one
// union view reads two live sources and another a live and a dead one,
// wrap() returns a tuple holding a collection, and late() fails on the
// last customer, "Zed".
func newStreamServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	db := rdb.NewDatabase("crm")
	db.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR, city VARCHAR)`)
	for i, name := range []string{`Ada & "Co"`, "Alan <Turing>", "Grace\tHopper", "Zed"} {
		if err := db.Insert("customers", rdb.Row{xmldm.Int(int64(i + 1)), xmldm.String(name), xmldm.String("Lon'don")}); err != nil {
			t.Fatal(err)
		}
	}
	cat := catalog.New()
	books, err := sources.NewXMLSource("books", `<bib><book year="1994"><title>T &amp; U</title><note>n1</note><note>n2</note></book><book><title>V</title></book></bib>`)
	if err != nil {
		t.Fatal(err)
	}
	dead, err := sources.NewXMLSource("dead", `<d><who>Nobody</who></d>`)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []catalog.Source{
		sources.NewRelationalSource("crmdb", db),
		books,
		chaos.Wrap(dead, chaos.Script{Then: chaos.Fault{Kind: chaos.Unavailable}}),
	} {
		if err := cat.AddSource(src); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range [][2]string{
		{"customers", `WHERE <customer><name>$n</name><city>$c</city></customer> IN "crmdb" CONSTRUCT <cust><who>$n</who><where>$c</where></cust>`},
		{"people", `WHERE <customer><name>$n</name></customer> IN "crmdb" CONSTRUCT <person><name>$n</name></person>`},
		{"people", `WHERE <book><title>$n</title></book> IN "books" CONSTRUCT <person><name>$n</name></person>`},
		{"everyone", `WHERE <customer><name>$n</name></customer> IN "crmdb" CONSTRUCT <person><name>$n</name></person>`},
		{"everyone", `WHERE <who>$n</who> IN "dead" CONSTRUCT <person><name>$n</name></person>`},
	} {
		if err := cat.DefineViewQL(v[0], v[1]); err != nil {
			t.Fatal(err)
		}
	}
	e := core.New(cat, core.Config{})
	e.RegisterFunc("wrap", func(args []xmldm.Value) (xmldm.Value, error) {
		return xmldm.NewTuple(
			xmldm.Field{Name: "book", Value: args[0]},
			xmldm.Field{Name: "all", Value: xmldm.NewCollection(args[0], xmldm.String("x<y"), xmldm.Null{})},
		), nil
	})
	e.RegisterFunc("late", func(args []xmldm.Value) (xmldm.Value, error) {
		if xmldm.Stringify(args[0]) == "Zed" {
			return nil, errors.New("late: no Zed")
		}
		return args[0], nil
	})
	srv := &Server{Cluster: cluster.New(cluster.Config{}, e)}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// streamCorpus is what TestStreamedAnswerEqualsMaterialized serves; rows
// is the row count, or -1 for a query that fails. The source sorts
// order-pushed's answer; the mediator sorts the sorted ones (two
// rewrites, or a source that cannot sort), whose rows are written after
// the sort.
var streamCorpus = []struct {
	name, query string
	rows        int
}{
	{"empty", `WHERE <cust><who>$w</who><where>$p</where></cust> IN "customers", $p = "Nowhere" CONSTRUCT <r>$w</r>`, 0},
	{"partial", `WHERE <person><name>$n</name></person> IN "everyone" CONSTRUCT <p>$n</p>`, 4},
	{"escaping", `WHERE <cust><who>$w</who><where>$p</where></cust> IN "customers" CONSTRUCT <r name=$w at=$p><city>$p</city>$w</r>`, 4},
	{"splice", `WHERE <book><title>$t</title></book> ELEMENT_AS $e IN "books" CONSTRUCT <r>$e<w>{ wrap($e) }</w></r>`, 2},
	{"subquery", `WHERE <book><title>$t</title></book> ELEMENT_AS $e IN "books" CONSTRUCT <b>$t{ WHERE <note>$x</note> IN $e CONSTRUCT <n>$x</n> }</b>`, 2},
	{"union", `WHERE <person><name>$n</name></person> IN "people" CONSTRUCT <p>$n</p>`, 6},
	{"cross", `WHERE <cust><who>$a</who></cust> IN "customers", <cust><who>$b</who></cust> IN "customers",
		<cust><who>$c</who></cust> IN "customers" CONSTRUCT <combo n=$a><x>$b</x><y>$c</y></combo>`, 64},
	{"order-pushed", `WHERE <cust><who>$w</who></cust> IN "customers" CONSTRUCT <r>$w</r> ORDER-BY $w DESC`, 4},
	{"sorted", `WHERE <person><name>$n</name></person> IN "people" CONSTRUCT <p>$n</p> ORDER-BY $n DESC`, 6},
	{"sorted-late-error", `WHERE <person><name>$n</name></person> IN "people" CONSTRUCT <p>{ late($n) }</p> ORDER-BY $n`, -1},
	// The nested query runs as its row is written, after every rewrite's
	// plan has closed.
	{"sorted-subquery", `WHERE <book><title>$t</title></book> ELEMENT_AS $e IN "books"
		CONSTRUCT <b>$t{ WHERE <note>$x</note> IN $e CONSTRUCT <n>$x</n> }</b> ORDER-BY $t DESC`, 2},
	// Keys that tie within and across the two rewrites (TestSortedTiesKeepHeldOrder).
	{"sorted-ties", sortedTies, 6},
	{"late-error", `WHERE <customer><name>$n</name></customer> IN "crmdb" CONSTRUCT <r>{ late($n) }</r>`, -1},
	{"late-predicate", `WHERE <customer><name>$n</name></customer> IN "crmdb", late($n) = $n CONSTRUCT <r>$n</r>`, -1},
	// A Select the source cannot run above a streamed fragment scan, which
	// then refills one tuple; then a chain of two, one a correlated
	// aggregate that runs a nested query on that tuple.
	{"select-chain", `WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb", $i < 4, late($n) = $n CONSTRUCT <r id=$i>$n</r>`, 3},
	{"select-aggregate", `WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb", $i < 4, late($n) = $n,
		count({ WHERE <customer><name>$m</name></customer> IN "crmdb", $m = $n CONSTRUCT <o/> }) = 1 CONSTRUCT <r id=$i>$n</r>`, 3},
}

// TestStreamedAnswerEqualsMaterialized serves each query of the corpus
// over HTTP, where the engine appends the rows to the response buffer as
// it builds them, and holds the response to the materialized path's —
// writeXML of the View of Cluster.QueryOpt's Values, or writeQueryError
// of its error — byte for byte, with the same status and Content-Length.
// The engine call with a buffer is checked too: an answer given a buffer
// has no Values, sorted or not.
func TestStreamedAnswerEqualsMaterialized(t *testing.T) {
	srv, ts := newStreamServer(t)
	ctx := context.Background()
	for _, c := range streamCorpus {
		res, err := srv.Cluster.QueryOpt(ctx, c.query, core.QueryOptions{})
		want := httptest.NewRecorder()
		if err != nil {
			writeQueryError(want, err)
		} else {
			writeXML(want, res.View())
		}
		if (err != nil) != (c.rows < 0) || (err == nil && (len(res.Values) != c.rows || res.Rows != c.rows)) {
			t.Fatalf("%s: materialized %v, error %v; the corpus expects %d rows", c.name, res, err, c.rows)
		}

		resp, body := postResp(t, ts.URL+"/query", c.query)
		if resp.StatusCode != want.Code || body != want.Body.String() {
			t.Errorf("%s: streamed status %d body\n%s\nmaterialized status %d body\n%s", c.name, resp.StatusCode, body, want.Code, want.Body)
		}
		if resp.ContentLength != int64(want.Body.Len()) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v, want length %d", c.name, resp.ContentLength, resp.TransferEncoding, want.Body.Len())
		}
		if l := want.Header().Get("Content-Length"); l != "" && l != strconv.FormatInt(resp.ContentLength, 10) {
			t.Errorf("%s: Content-Length %d, materialized %s", c.name, resp.ContentLength, l)
		}
		if c.rows < 0 {
			continue
		}

		buf := xmlparse.NewBuffer()
		buf.StartDocument(2)
		res, err = srv.Cluster.QueryOpt(ctx, c.query, core.QueryOptions{Buffer: buf})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Rows != c.rows || res.Values != nil {
			t.Errorf("%s: %d rows, %d held as Values; want %d rows written", c.name, res.Rows, len(res.Values), c.rows)
		}
		if got := string(endAnswer(buf, res, false, false)); got != want.Body.String() {
			t.Errorf("%s: answer from Cluster.QueryOpt with a buffer\n%s\nwant\n%s", c.name, got, want.Body)
		}
		buf.Release()
	}
}

// sortedTies is ordered by a key on which rows of both rewrites of
// "people" tie: false for Zed (crmdb) and both book titles, true for the
// other customers.
const sortedTies = `WHERE <person><name>$n</name></person> IN "people" CONSTRUCT <p>$n</p> ORDER-BY contains($n, "a")`

// TestSortedTiesKeepHeldOrder: rows whose keys tie keep the order they
// were held in, rewrite by rewrite and each in production order, given a
// buffer or not.
func TestSortedTiesKeepHeldOrder(t *testing.T) {
	srv, _ := newStreamServer(t)
	want := []string{"Zed", "T &amp; U", "V", "Ada &amp; &#34;Co&#34;", "Alan &lt;Turing&gt;", "Grace&#x9;Hopper"}
	for _, buffered := range []bool{false, true} {
		buf := xmlparse.NewBuffer()
		buf.StartDocument(0)
		qo := core.QueryOptions{}
		if buffered {
			qo.Buffer = buf
		}
		res, err := srv.Cluster.QueryOpt(context.Background(), sortedTies, qo)
		if err != nil {
			t.Fatal(err)
		}
		body := string(endAnswer(buf, res, false, false))
		var got []string
		for _, part := range strings.Split(body, "<p>")[1:] {
			got = append(got, part[:strings.Index(part, "</p>")])
		}
		if !slices.Equal(got, want) {
			t.Errorf("buffered %v: rows %q, want %q", buffered, got, want)
		}
		buf.Release()
	}
}

// TestReportsRenderAsTheDocumentCopy holds endAnswer, on answers with
// ?explain=1 and ?profile=1, to how the front end rendered them before it
// assembled answers in the buffer: the <explain> and <profile> elements
// appended to a Document copy, serialized whole.
func TestReportsRenderAsTheDocumentCopy(t *testing.T) {
	srv, _ := newStreamServer(t)
	for _, c := range streamCorpus {
		if c.rows < 0 {
			continue
		}
		for _, qo := range []core.QueryOptions{{Explain: true}, {Profile: true}, {Explain: true, Profile: true}} {
			res, err := srv.Cluster.QueryOpt(context.Background(), c.query, qo)
			if err != nil {
				t.Fatal(err)
			}
			doc := res.Document()
			if qo.Explain {
				ex := &xmldm.Node{Name: "explain", Parent: doc, Attrs: []xmldm.Attr{
					{Name: "operators", Value: strconv.FormatInt(res.Stats.OperatorsRun, 10)},
					{Name: "drain_ms", Value: strconv.FormatFloat(float64(res.Stats.DrainNanos)/1e6, 'f', 3, 64)}}}
				ex.Children = append(ex.Children, xmldm.String("\n"+res.Explain.Render()))
				doc.Children = append(doc.Children, ex)
			}
			if qo.Profile {
				prof := &xmldm.Node{Name: "profile", Parent: doc}
				sn := spanNode(res.Trace)
				sn.Parent = prof
				prof.Children = append(prof.Children, sn)
				doc.Children = append(doc.Children, prof)
			}
			xmldm.Finalize(doc)
			want := httptest.NewRecorder()
			writeXML(want, doc)

			buf := xmlparse.NewBuffer()
			buf.StartDocument(2)
			if got := string(endAnswer(buf, res, qo.Explain, qo.Profile)); got != want.Body.String() {
				t.Errorf("%s %+v:\n%s\nwant\n%s", c.name, qo, got, want.Body)
			}
			buf.Release()
		}
	}
}

// spanPaths is every span of a span tree rendered as spanNode renders
// it, as the path of names from its root, sorted, so that spans recorded
// concurrently (fetches) compare as a set.
func spanPaths(root *xmldm.Node) []string {
	var paths []string
	var walk func(prefix string, n *xmldm.Node)
	walk = func(prefix string, n *xmldm.Node) {
		name, _ := n.Attr("name")
		paths = append(paths, prefix+"/"+name)
		for _, c := range n.ChildElements() {
			walk(prefix+"/"+name, c)
		}
	}
	walk("", root)
	slices.Sort(paths)
	return paths
}

// TestProfileIsThePlainQuerysTrace: a query served with ?profile=1 takes
// the path it takes served plain, so the span tree in its <profile> names
// the spans of the engine span in the kept trace of the plain request,
// construct spans included (only after a sort).
func TestProfileIsThePlainQuerysTrace(t *testing.T) {
	srv, ts := newStreamServer(t)
	srv.Traces = obs.NewTraceStore(obs.StoreConfig{})
	for _, c := range streamCorpus {
		if c.rows < 0 {
			continue
		}
		postResp(t, ts.URL+"/query", c.query)
		var engine []*obs.Span
		for _, root := range srv.Traces.Last(1) {
			engine = root.FindAll("engine")
		}
		if len(engine) != 1 {
			t.Fatalf("%s: %d engine spans in the kept trace, want one", c.name, len(engine))
		}
		plain := spanPaths(spanNode(engine[0]))

		_, body := postResp(t, ts.URL+"/query?profile=1", c.query)
		doc, err := xmlparse.ParseString(body)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		prof := doc.Child("profile")
		if prof == nil || len(prof.ChildElements()) != 1 {
			t.Fatalf("%s: no span tree in\n%s", c.name, body)
		}
		if profiled := spanPaths(prof.ChildElements()[0]); !slices.Equal(profiled, plain) {
			t.Errorf("%s: ?profile=1 spans\n%s\nthe plain query's\n%s", c.name, strings.Join(profiled, "\n"), strings.Join(plain, "\n"))
		}
	}
}

// answerRows is an answer body's <results> start tag and rows: what comes
// before its first report (<explain> or <profile>) or its end tag, an
// empty root written open.
func answerRows(body string) string {
	body = strings.Replace(body, "<results/>", "<results>", 1)
	for _, end := range []string{"\n  <explain ", "\n  <profile>", "\n</results>"} {
		if i := strings.Index(body, end); i >= 0 {
			body = body[:i]
		}
	}
	return body
}

// TestReportsKeepThePlainRows: an explained or profiled answer is served
// as a plain one is, its reports appended after the rows, so over HTTP its
// root and rows are the plain answer's byte for byte.
func TestReportsKeepThePlainRows(t *testing.T) {
	_, ts := newStreamServer(t)
	for _, c := range streamCorpus {
		if c.rows < 0 {
			continue
		}
		_, plain := postResp(t, ts.URL+"/query", c.query)
		want := answerRows(plain)
		for _, opts := range []string{"explain=1", "profile=1", "explain=1&profile=1"} {
			_, body := postResp(t, ts.URL+"/query?"+opts, c.query)
			if got := answerRows(body); got != want {
				t.Errorf("%s ?%s: rows\n%s\nthe plain answer's\n%s", c.name, opts, got, want)
			}
		}
	}
}
