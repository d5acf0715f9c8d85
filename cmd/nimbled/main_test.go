package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	nimble "repro"
)

func TestBootAndServe(t *testing.T) {
	sys := nimble.New(nimble.Config{Instances: 2, CacheEntries: 8})
	if err := boot(sys, 50); err != nil {
		t.Fatal(err)
	}
	if len(sys.Sources()) != 3 || len(sys.Schemas()) != 2 {
		t.Fatalf("boot: sources=%v schemas=%v", sys.Sources(), sys.Schemas())
	}
	ts := httptest.NewServer(sys.HTTPHandler("admin"))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/query", "text/plain",
		strings.NewReader(`WHERE <cust><who>$w</who></cust> IN "customers" CONSTRUCT <r>$w</r>`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "<results>") {
		t.Errorf("query: %d %s", resp.StatusCode, body)
	}

	resp, err = http.Get(ts.URL + "/lens/by-city?city=Seattle&device=web")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "<html>") {
		t.Errorf("lens: %d", resp.StatusCode)
	}

	// The authenticated VIP lens rejects without its token.
	resp, _ = http.Get(ts.URL + "/lens/vips")
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("vips without token: %d", resp.StatusCode)
	}
	resp, _ = http.Get(ts.URL + "/lens/vips?auth=vip-secret&device=plain")
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("vips with token: %d", resp.StatusCode)
	}
}

// TestFlagsBindOntoTheConfig: flags land in the System's configuration
// as parsed, and the defaults are the daemon's.
func TestFlagsBindOntoTheConfig(t *testing.T) {
	d, err := parseFlags([]string{"-route", "affinity", "-cap", "8", "-query-class", "batch", "-addr", ":9090"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c := d.cfg; c.RoutePolicy != "affinity" || c.InstanceCapacity != 8 || c.QueryClass != "batch" || d.addr != ":9090" {
		t.Errorf("parsed: %+v, addr %q", c, d.addr)
	}
	d, err = parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c := d.cfg; c.Instances != 2 || c.RoutePolicy != "least" || c.QueryClass != "interactive" || c.CacheEntries != 64 || c.FetchTimeout != 10*time.Second {
		t.Errorf("defaults: %+v", c)
	}
}

// TestBadFlagValuesAreUsageErrors: a routing policy or query class the
// system does not know is refused while flags are parsed, with the usage
// message, before anything is built.
func TestBadFlagValuesAreUsageErrors(t *testing.T) {
	for _, tc := range []struct{ flag, want string }{
		{"-route", "unknown routing policy"},
		{"-query-class", "bogus"},
	} {
		var out strings.Builder
		if _, err := parseFlags([]string{tc.flag, "bogus"}, &out); err == nil {
			t.Errorf("%s bogus: accepted", tc.flag)
		}
		if msg := out.String(); !strings.Contains(msg, "invalid value \"bogus\" for flag "+tc.flag) ||
			!strings.Contains(msg, tc.want) || !strings.Contains(msg, "Usage of nimbled") {
			t.Errorf("%s bogus: output\n%s", tc.flag, msg)
		}
	}
}
