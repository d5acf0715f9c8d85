package lens

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/xmlparse"
	"repro/internal/xmlql"
)

func sampleLens() *Lens {
	return &Lens{
		Name:  "customers-by-city",
		Title: "Customers",
		Queries: []string{
			`WHERE <cust><who>$w</who><where>$p</where></cust> IN "customers", $p = "${city}"
			 CONSTRUCT <hit><name>$w</name></hit>`,
		},
		Params: []Param{
			{Name: "city", Required: true},
			{Name: "limit", Default: "10"},
		},
	}
}

func TestBindSubstitutes(t *testing.T) {
	l := sampleLens()
	qs, err := l.Bind(map[string]string{"city": "London"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(qs[0], `"London"`) || strings.Contains(qs[0], "${") {
		t.Errorf("bound = %s", qs[0])
	}
}

func TestBindValidation(t *testing.T) {
	l := sampleLens()
	if _, err := l.Bind(nil); err == nil {
		t.Error("missing required parameter should fail")
	}
	if _, err := l.Bind(map[string]string{"city": "X", "nope": "1"}); err == nil {
		t.Error("unknown parameter should fail")
	}
}

func TestBindDefaultApplied(t *testing.T) {
	l := &Lens{
		Name:    "l",
		Queries: []string{`WHERE <a>$x</a> IN "s", $x < ${limit} CONSTRUCT <r>$x</r>`},
		Params:  []Param{{Name: "limit", Default: "5"}},
	}
	qs, err := l.Bind(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(qs[0], "< 5") {
		t.Errorf("default not applied: %s", qs[0])
	}
}

func TestBindEscapesInjection(t *testing.T) {
	l := sampleLens()
	qs, err := l.Bind(map[string]string{"city": `X" CONSTRUCT <evil/`})
	if err != nil {
		t.Fatal(err)
	}
	// The quote must be escaped so the value stays inside the literal.
	if !strings.Contains(qs[0], `\"`) {
		t.Errorf("injection not escaped: %s", qs[0])
	}
}

// TestBindEscapesSingleQuotes: a value bound inside a single-quoted
// literal stays that literal's value; it cannot close the quote and add
// a predicate that matches every row.
func TestBindEscapesSingleQuotes(t *testing.T) {
	l := &Lens{
		Name:    "l",
		Queries: []string{`WHERE <c><p>$c</p></c> IN "s", $c = '${city}' CONSTRUCT <r/>`},
		Params:  []Param{{Name: "city"}},
	}
	value := `nowhere' OR $c != 'x`
	qs, err := l.Bind(map[string]string{"city": value})
	if err != nil {
		t.Fatal(err)
	}
	q, err := xmlql.Parse(qs[0])
	if err != nil {
		t.Fatalf("%s: %v", qs[0], err)
	}
	if len(q.Where) != 2 {
		t.Fatalf("bound %s: %d conditions", qs[0], len(q.Where))
	}
	want := &xmlql.BinExpr{Op: "=", L: &xmlql.VarExpr{Name: "c"}, R: &xmlql.LitExpr{Value: value}}
	if got := xmlql.ExprString(q.Where[1].(*xmlql.PredicateCond).Expr); got != xmlql.ExprString(want) {
		t.Errorf("bound predicate %s, want %s", got, xmlql.ExprString(want))
	}
}

func TestBindUnboundPlaceholderFails(t *testing.T) {
	l := &Lens{Name: "l", Queries: []string{`WHERE <a>$x</a> IN "s", $x = "${oops}" CONSTRUCT <r/>`}}
	if _, err := l.Bind(nil); err == nil {
		t.Error("unbound placeholder should fail")
	}
	l2 := &Lens{Name: "l", Queries: []string{`WHERE <a>$x</a> IN "s", $x = "${broken" CONSTRUCT <r/>`}}
	if _, err := l2.Bind(nil); err == nil {
		t.Error("unterminated placeholder should fail")
	}
}

func TestBindValuesAreNotRescanned(t *testing.T) {
	// A parameter value containing "${other}" must stay literal: values
	// are substituted in one pass, never re-expanded.
	l := &Lens{
		Name:    "l",
		Queries: []string{`WHERE <a>$x</a> IN "s", $x = "${a}" AND $x != "${b}" CONSTRUCT <r/>`},
		Params:  []Param{{Name: "a"}, {Name: "b", Default: "bee"}},
	}
	qs, err := l.Bind(map[string]string{"a": "${b}"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(qs[0], `"${b}"`) {
		t.Errorf("value was re-expanded: %s", qs[0])
	}
	if !strings.Contains(qs[0], `"bee"`) {
		t.Errorf("real placeholder not expanded: %s", qs[0])
	}
}

func TestAuthorize(t *testing.T) {
	open := &Lens{Name: "open", Queries: []string{"q"}}
	if err := open.Authorize(""); err != nil {
		t.Error("open lens should not need auth")
	}
	sec := &Lens{Name: "sec", Queries: []string{"q"}, AuthToken: "s3cret"}
	if err := sec.Authorize("wrong"); !errors.Is(err, ErrAuth) {
		t.Errorf("wrong token: %v", err)
	}
	if err := sec.Authorize("s3cret"); err != nil {
		t.Errorf("right token: %v", err)
	}
}

func TestRenderDevices(t *testing.T) {
	doc, err := xmlparse.ParseString(`<results><hit><name>Ada &amp; Co</name><city>London</city></hit></results>`)
	if err != nil {
		t.Fatal(err)
	}
	l := sampleLens()

	xml := l.Render(doc, DeviceXML)
	if !strings.Contains(xml, "<results>") {
		t.Errorf("xml = %s", xml)
	}

	web := l.Render(doc, DeviceWeb)
	if !strings.Contains(web, "<h1>Customers</h1>") || !strings.Contains(web, "Ada &amp; Co") {
		t.Errorf("web = %s", web)
	}
	if !strings.Contains(web, "<dt>name</dt>") {
		t.Errorf("generic rendering missing: %s", web)
	}

	plain := l.Render(doc, DevicePlain)
	if !strings.Contains(plain, "name=Ada & Co | city=London") {
		t.Errorf("plain = %q", plain)
	}

	wl := l.Render(doc, DeviceWireless)
	line := strings.SplitN(wl, "\n", 2)[0]
	if len(line) > 41 {
		t.Errorf("wireless line too long: %q", line)
	}
}

func TestRenderIncompleteWarning(t *testing.T) {
	doc, _ := xmlparse.ParseString(`<results complete="false"><hit><name>A</name></hit></results>`)
	l := sampleLens()
	if !strings.Contains(l.Render(doc, DeviceWeb), "incomplete") {
		t.Error("web output should warn about partial results")
	}
	if !strings.HasPrefix(l.Render(doc, DevicePlain), "! partial results") {
		t.Error("plain output should flag partial results")
	}
}

func TestRenderRules(t *testing.T) {
	doc, _ := xmlparse.ParseString(`<results><hit id="7"><name>Ada</name><city>London</city></hit></results>`)
	l := sampleLens()
	l.Rules = []Rule{{
		Match:    "hit",
		Template: `<p>#{attr:id} {child:name} of {child:city}</p>`,
	}}
	web := l.Render(doc, DeviceWeb)
	if !strings.Contains(web, "<p>#7 Ada of London</p>") {
		t.Errorf("rule rendering = %s", web)
	}
}

func TestRuleChildrenPlaceholder(t *testing.T) {
	doc, _ := xmlparse.ParseString(`<results><grp><item>a</item><item>b</item></grp></results>`)
	l := &Lens{Name: "l", Queries: []string{"q"},
		Rules: []Rule{{Match: "grp", Template: `<ul>{children}</ul>`}, {Match: "item", Template: `<li>{text}</li>`}}}
	web := l.Render(doc, DeviceWeb)
	if !strings.Contains(web, "<ul><li>a</li><li>b</li></ul>") {
		t.Errorf("children rendering = %s", web)
	}
}

func TestParseDevice(t *testing.T) {
	cases := map[string]Device{
		"web": DeviceWeb, "HTML": DeviceWeb, "wml": DeviceWireless,
		"plain": DevicePlain, "text": DevicePlain, "xml": DeviceXML, "": DeviceXML,
	}
	for in, want := range cases {
		if got := ParseDevice(in); got != want {
			t.Errorf("ParseDevice(%q) = %v", in, got)
		}
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if err := r.Publish(&Lens{}); err == nil {
		t.Error("unnamed lens should fail")
	}
	if err := r.Publish(&Lens{Name: "x"}); err == nil {
		t.Error("queryless lens should fail")
	}
	if err := r.Publish(sampleLens()); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get("CUSTOMERS-BY-CITY"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	if names := r.Names(); len(names) != 1 {
		t.Errorf("names = %v", names)
	}
}
