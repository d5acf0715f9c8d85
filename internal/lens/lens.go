// Package lens implements the front-end objects of §2.1: "a lens is an
// object that contains a set of XML queries, parameters, XSL formatting,
// and authentication information. Result formatting can be targeted to
// specific devices (e.g., web interface, wireless device)."
//
// The formatting engine is a small match-template transform (the role
// XSL plays in the product): per-element rules with placeholder
// substitution, plus built-in whole-document renderings per device.
package lens

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/xmldm"
	"repro/internal/xmlparse"
)

// Device names a rendering target.
type Device string

// The supported devices.
const (
	DeviceXML      Device = "xml"      // raw XML
	DeviceWeb      Device = "web"      // HTML
	DeviceWireless Device = "wireless" // compact text for small screens
	DevicePlain    Device = "plain"    // plain text lines
)

// ParseDevice maps a string to a Device (defaulting to XML).
func ParseDevice(s string) Device {
	switch strings.ToLower(s) {
	case "web", "html":
		return DeviceWeb
	case "wireless", "wml":
		return DeviceWireless
	case "plain", "text":
		return DevicePlain
	default:
		return DeviceXML
	}
}

// Param declares one lens parameter.
type Param struct {
	Name     string
	Required bool
	Default  string
}

// Rule is one formatting rule: elements whose name equals Match render
// through Template. Placeholders: {text} (the element's text), {tag}
// (its name), {attr:k} (attribute k), {child:k} (text of child k),
// {children} (recursive rendering of child elements).
type Rule struct {
	Match    string
	Template string
}

// Lens is a published, parameterized query with formatting and
// authentication.
type Lens struct {
	Name    string
	Queries []string // XML-QL texts with ${param} placeholders
	Params  []Param
	Rules   []Rule
	// AuthToken, when non-empty, must accompany every use of the lens.
	AuthToken string
	// Title renders as the heading on web output.
	Title string
}

// ErrAuth is returned when a lens's auth token is missing or wrong.
var ErrAuth = errors.New("lens: authentication failed")

// Authorize checks a supplied token.
func (l *Lens) Authorize(token string) error {
	if l.AuthToken != "" && token != l.AuthToken {
		return ErrAuth
	}
	return nil
}

// Bind substitutes parameters into the lens queries. Parameter values
// are escaped for splicing inside string literals; unknown parameters
// are rejected, required ones enforced, defaults applied.
func (l *Lens) Bind(params map[string]string) ([]string, error) {
	declared := map[string]Param{}
	for _, p := range l.Params {
		declared[p.Name] = p
	}
	for name := range params {
		if _, ok := declared[name]; !ok {
			return nil, fmt.Errorf("lens %s: unknown parameter %q", l.Name, name)
		}
	}
	vals := map[string]string{}
	for _, p := range l.Params {
		v, ok := params[p.Name]
		if !ok || v == "" {
			if p.Required && p.Default == "" {
				return nil, fmt.Errorf("lens %s: parameter %q is required", l.Name, p.Name)
			}
			v = p.Default
		}
		vals[p.Name] = v
	}
	var out []string
	for _, q := range l.Queries {
		bound, err := substitute(l.Name, q, vals)
		if err != nil {
			return nil, err
		}
		out = append(out, bound)
	}
	return out, nil
}

// substitute expands ${name} placeholders in a single left-to-right
// pass. Substituted values are never re-scanned, so a parameter value
// containing "${...}" stays literal — no injection through values and
// no dependence on map iteration order.
func substitute(lensName, q string, vals map[string]string) (string, error) {
	var sb strings.Builder
	for {
		i := strings.Index(q, "${")
		if i < 0 {
			sb.WriteString(q)
			return sb.String(), nil
		}
		sb.WriteString(q[:i])
		end := strings.Index(q[i:], "}")
		if end < 0 {
			return "", fmt.Errorf("lens %s: unterminated placeholder %s", lensName, q[i:])
		}
		name := q[i+2 : i+end]
		v, ok := vals[name]
		if !ok {
			return "", fmt.Errorf("lens %s: unbound placeholder ${%s}", lensName, name)
		}
		sb.WriteString(escapeQL(v))
		q = q[i+end+1:]
	}
}

// escapeQL escapes a parameter value for safe inclusion inside an XML-QL
// string literal, double- or single-quoted: the lexer reads \c as c.
func escapeQL(v string) string { return qlEscaper.Replace(v) }

var qlEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, `'`, `\'`)

// Render formats a result document for a device.
func (l *Lens) Render(doc *xmldm.Node, device Device) string {
	switch device {
	case DeviceWeb:
		return l.renderWeb(doc)
	case DeviceWireless:
		return l.renderCompact(doc, 40)
	case DevicePlain:
		return l.renderCompact(doc, 0)
	default:
		return xmlparse.SerializeString(doc, 2)
	}
}

func (l *Lens) ruleFor(name string) (Rule, bool) {
	for _, r := range l.Rules {
		if r.Match == name {
			return r, true
		}
	}
	return Rule{}, false
}

// applyRule expands a rule template for an element.
func (l *Lens) applyRule(r Rule, n *xmldm.Node) string {
	out := r.Template
	out = strings.ReplaceAll(out, "{text}", htmlEscape(n.Text()))
	out = strings.ReplaceAll(out, "{tag}", n.Name)
	for strings.Contains(out, "{attr:") {
		i := strings.Index(out, "{attr:")
		j := strings.Index(out[i:], "}")
		if j < 0 {
			break
		}
		key := out[i+6 : i+j]
		v, _ := n.Attr(key)
		out = out[:i] + htmlEscape(v) + out[i+j+1:]
	}
	for strings.Contains(out, "{child:") {
		i := strings.Index(out, "{child:")
		j := strings.Index(out[i:], "}")
		if j < 0 {
			break
		}
		key := out[i+7 : i+j]
		text := ""
		if c := n.Child(key); c != nil {
			text = c.Text()
		}
		out = out[:i] + htmlEscape(text) + out[i+j+1:]
	}
	if strings.Contains(out, "{children}") {
		var sb strings.Builder
		for _, c := range n.ChildElements() {
			sb.WriteString(l.renderElement(c))
		}
		out = strings.ReplaceAll(out, "{children}", sb.String())
	}
	return out
}

// renderElement renders one element: through its rule if any, otherwise
// a generic definition-list rendering.
func (l *Lens) renderElement(n *xmldm.Node) string {
	if r, ok := l.ruleFor(n.Name); ok {
		return l.applyRule(r, n)
	}
	kids := n.ChildElements()
	if len(kids) == 0 {
		return fmt.Sprintf(`<span class=%q>%s</span>`, n.Name, htmlEscape(n.Text()))
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, `<dl class=%q>`, n.Name)
	for _, c := range kids {
		if len(c.ChildElements()) > 0 {
			fmt.Fprintf(&sb, "<dt>%s</dt><dd>%s</dd>", c.Name, l.renderElement(c))
		} else {
			fmt.Fprintf(&sb, "<dt>%s</dt><dd>%s</dd>", c.Name, htmlEscape(c.Text()))
		}
	}
	sb.WriteString("</dl>")
	return sb.String()
}

func (l *Lens) renderWeb(doc *xmldm.Node) string {
	var sb strings.Builder
	title := l.Title
	if title == "" {
		title = l.Name
	}
	fmt.Fprintf(&sb, "<html><head><title>%s</title></head><body><h1>%s</h1>\n", htmlEscape(title), htmlEscape(title))
	if v, ok := doc.Attr("complete"); ok && v == "false" {
		sb.WriteString(`<p class="warning">Warning: results are incomplete; one or more sources did not respond.</p>` + "\n")
	}
	for _, c := range doc.ChildElements() {
		sb.WriteString(`<div class="result">`)
		sb.WriteString(l.renderElement(c))
		sb.WriteString("</div>\n")
	}
	sb.WriteString("</body></html>")
	return sb.String()
}

// renderCompact renders text lines; width > 0 truncates for small
// screens.
func (l *Lens) renderCompact(doc *xmldm.Node, width int) string {
	var sb strings.Builder
	if v, ok := doc.Attr("complete"); ok && v == "false" {
		sb.WriteString("! partial results\n")
	}
	for _, c := range doc.ChildElements() {
		line := compactLine(c)
		if width > 0 && len(line) > width {
			line = line[:width-1] + "…"
		}
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func compactLine(n *xmldm.Node) string {
	kids := n.ChildElements()
	if len(kids) == 0 {
		return n.Text()
	}
	var parts []string
	for _, c := range kids {
		parts = append(parts, c.Name+"="+c.Text())
	}
	return strings.Join(parts, " | ")
}

func htmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// Registry holds published lenses, safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	lenses map[string]*Lens // guarded by mu
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{lenses: map[string]*Lens{}}
}

// Publish registers a lens; republishing a name replaces it.
func (r *Registry) Publish(l *Lens) error {
	if l.Name == "" {
		return errors.New("lens: lens needs a name")
	}
	if len(l.Queries) == 0 {
		return fmt.Errorf("lens %s: needs at least one query", l.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lenses[strings.ToLower(l.Name)] = l
	return nil
}

// Get returns the named lens.
func (r *Registry) Get(name string) (*Lens, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	l, ok := r.lenses[strings.ToLower(name)]
	return l, ok
}

// Names lists published lenses, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for _, l := range r.lenses {
		out = append(out, l.Name)
	}
	sort.Strings(out)
	return out
}
