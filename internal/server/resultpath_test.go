package server

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/xmldm"
)

// bigQuery answers with the 3^5 combinations of customer names: about
// 15 KB, several times what net/http buffers before it falls back to
// chunked framing for a response without a Content-Length.
const bigQuery = `WHERE <cust><who>$a</who></cust> IN "customers", <cust><who>$b</who></cust> IN "customers",
	<cust><who>$c</who></cust> IN "customers", <cust><who>$d</who></cust> IN "customers", <cust><who>$e</who></cust> IN "customers"
	CONSTRUCT <combo n=$a><x>$b</x><y>$c $d</y><z>$e</z></combo>`

func postResp(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// TestQueryContentLength checks that /query frames its answer by length —
// on a miss, on a cache hit and with ?explain=1 — instead of leaving a
// large body to chunked encoding, and that error answers are still
// http.Error's.
func TestQueryContentLength(t *testing.T) {
	srv, ts := newTestServer(t)
	for _, c := range []struct{ name, url string }{
		{"miss", ts.URL + "/query"},
		{"hit", ts.URL + "/query"},
		{"explain", ts.URL + "/query?explain=1"},
	} {
		resp, body := postResp(t, c.url, bigQuery)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.name, resp.StatusCode, body)
		}
		if len(body) < 8<<10 {
			t.Fatalf("%s: body is %d bytes, too small to tell length framing from buffering", c.name, len(body))
		}
		if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(body)) {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v, body %d bytes",
				c.name, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/xml" {
			t.Errorf("%s: Content-Type %q", c.name, ct)
		}
	}
	if st := srv.Cluster.CacheStats(); st.Hits != 1 {
		t.Errorf("cache stats %+v: the second request should have been the only hit", st)
	}

	resp, body := postResp(t, ts.URL+"/query", "garbage")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("error Content-Type %q, want http.Error's text/plain", ct)
	}
	if resp.Header.Get("X-Content-Type-Options") != "nosniff" || !strings.HasSuffix(body, "\n") {
		t.Errorf("error answer is not framed by http.Error: headers %v body %q", resp.Header, body)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Errorf("error Content-Length %d, body %d bytes", resp.ContentLength, len(body))
	}
}

// nodeState is what a shared node must still look like after it has been
// served.
type nodeState struct {
	node     *xmldm.Node
	parent   *xmldm.Node
	ord      int
	children int
}

func snapshot(values []xmldm.Value) []nodeState {
	var out []nodeState
	for _, v := range values {
		if n, ok := v.(*xmldm.Node); ok {
			n.Walk(func(e *xmldm.Node) bool {
				out = append(out, nodeState{e, e.Parent, e.Ord, len(e.Children)})
				return true
			})
		}
	}
	return out
}

// TestCachedValuesStayImmutable serves one cached answer from eight
// goroutines — each rendering the cache's own nodes in place — while a
// ninth takes Document copies of the same values and edits them. Under
// -race any write to a shared node is a reported race; afterwards every
// shared node and the Values slice are as they were.
func TestCachedValuesStayImmutable(t *testing.T) {
	srv, ts := newTestServer(t)
	_, want := postResp(t, ts.URL+"/query", bigQuery)
	// A hit hands out the cache's own values.
	cached, err := srv.Cluster.Query(context.Background(), bigQuery)
	if err != nil {
		t.Fatal(err)
	}
	if st := srv.Cluster.CacheStats(); st.Hits != 1 {
		t.Fatalf("cache stats %+v: the answer was not cached", st)
	}
	before := snapshot(cached.Values)
	wantLen, wantCap := len(cached.Values), cap(cached.Values)
	first := cached.Values[0]

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(bigQuery))
				if err != nil {
					t.Error(err)
					return
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || string(b) != want {
					t.Errorf("cached answer changed (read error %v)", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		res := &core.Result{Values: cached.Values}
		res.Completeness.Complete = true
		for i := 0; i < 50; i++ {
			doc := res.Document()
			doc.Children = append(doc.Children, &xmldm.Node{Name: "extra"})
			doc.Children[0].(*xmldm.Node).Name = "edited"
			xmldm.Finalize(doc)
		}
	}()
	wg.Wait()

	if len(cached.Values) != wantLen || cap(cached.Values) != wantCap || cached.Values[0] != first {
		t.Errorf("Values is now len %d cap %d, was len %d cap %d", len(cached.Values), cap(cached.Values), wantLen, wantCap)
	}
	after := snapshot(cached.Values)
	if len(after) != len(before) {
		t.Fatalf("%d shared nodes, were %d", len(after), len(before))
	}
	for i, b := range before {
		if after[i] != b {
			t.Fatalf("shared node %d <%s> changed: %+v, was %+v", i, b.node.Name, after[i], b)
		}
	}
	if st := srv.Cluster.CacheStats(); st.Hits < 160 {
		t.Errorf("cache stats %+v: the storm should have been served from the cache", st)
	}
}
