package nimble

// Trace rendering goldens: with a fixed TraceSeed, the /debug/traces
// JSON, the /debug/trace/last XML, an OTLP file export and a ?profile=1
// body are byte-identical to the committed files under testdata/ once
// clock readings (start times, durations, elapsed and wait counters,
// backoff delays) are masked; and /metrics lists the same series after
// the same run (values dropped: latencies vary). Regenerate with
//
//	go test -run TestTraceRenderingsMatchGoldens -update .

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/workload"
)

var updateGoldens = flag.Bool("update", false, "rewrite the trace goldens under testdata/")

// clockReadings masks every value that depends on the clock, in the
// JSON, OTLP and XML renderings alike.
var clockReadings = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`"(start|time)":"[^"]*"`), `"$1":"T"`},
	{regexp.MustCompile(`"duration_ms":[-0-9.eE+]+`), `"duration_ms":0`},
	{regexp.MustCompile(`"(elapsed_us|wait_us|delay)":"[^"]*"`), `"$1":"N"`},
	{regexp.MustCompile(`"(startTimeUnixNano|endTimeUnixNano|timeUnixNano)":"[0-9]+"`), `"$1":"T"`},
	{regexp.MustCompile(`("key":"(elapsed_us|wait_us|delay)","value":\{"stringValue":")[^"]*"`), `${1}N"`},
	{regexp.MustCompile(` (duration_ms|elapsed_us|wait_us|delay)="[^"]*"`), ` $1="N"`},
}

func maskClock(s string) string {
	for _, c := range clockReadings {
		s = c.re.ReplaceAllString(s, c.with)
	}
	return s
}

// seriesOf keeps the # TYPE lines of a Prometheus exposition and the
// series identity of every other line.
func seriesOf(expo string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSpace(expo), "\n") {
		if !strings.HasPrefix(line, "# ") {
			line, _, _ = strings.Cut(line, " ")
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

func TestTraceRenderingsMatchGoldens(t *testing.T) {
	var otlp bytes.Buffer
	sys := New(Config{
		TraceBuffer:  16,
		TraceSample:  1,
		TraceSeed:    11,
		Metrics:      obs.NewRegistry(),
		FetchRetries: 2,
		RetryBackoff: time.Millisecond,
	})
	if err := sys.AddRelationalSource("crmdb", workload.CustomerDB("crm", 20, 2, 7)); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddXMLSource("xs", `<xs><a>1</a><a>2</a></xs>`); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddXMLSource("dead", `<dead><item>alpha</item></dead>`); err != nil {
		t.Fatal(err)
	}
	if err := sys.DefineSchema("customers", `
		WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb"
		CONSTRUCT <cust><cid>$i</cid><who>$n</who></cust>`); err != nil {
		t.Fatal(err)
	}
	sys.WrapSources(func(src Source) Source {
		if src.Name() != "dead" {
			return nil
		}
		return chaos.Wrap(src, chaos.Script{Then: chaos.Fault{Kind: chaos.Unavailable}})
	})
	sys.SetTraceExporter(obs.NewWriterExporter(&otlp, "nimble"))
	defer sys.Close()
	ts := httptest.NewServer(sys.HTTPHandler("admin"))
	defer ts.Close()

	do := func(method, path, body string) string {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s %s: %d %s", method, path, resp.StatusCode, b)
		}
		return string(b)
	}
	// One fetch per query, so every span id is drawn in a fixed order.
	do("POST", "/query", `WHERE <cust><cid>$i</cid><who>$w</who></cust> IN "customers", $i = 3 CONSTRUCT <r>$w</r>`)
	do("POST", "/query", `WHERE <a>$x</a> IN "xs", $x > 1 CONSTRUCT <r>$x</r>`)
	do("POST", "/query", `WHERE <item>$x</item> IN "dead" CONSTRUCT <r>$x</r>`)
	profile := do("POST", "/query?profile=1", `WHERE <cust><cid>$i</cid><who>$w</who></cust> IN "customers", $i < 3 CONSTRUCT <r>$w</r>`)
	traces := do("GET", "/debug/traces", "")
	last := do("GET", "/debug/trace/last?n=2&format=xml", "")
	sys.FlushTraces()
	metrics := seriesOf(do("GET", "/metrics", ""))

	for _, g := range []struct{ name, got string }{
		{"traces.json", traces},
		{"trace_last.xml", last},
		{"otlp.jsonl", otlp.String()},
		{"profile.xml", profile},
		{"metrics_series.txt", metrics},
	} {
		path := filepath.Join("testdata", "trace_golden", g.name)
		got := maskClock(g.got)
		if *updateGoldens {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs from its golden:\n got: %s\nwant: %s", g.name, got, want)
		}
	}
}
