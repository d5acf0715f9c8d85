// Package xmlparse converts between XML text and the xmldm node model.
// It is the boundary through which XML documents enter the integration
// system — from XML sources, from wire requests, and from stored
// materialized views.
package xmlparse

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode"

	"repro/internal/xmldm"
)

// ErrNoRoot is returned when the input contains no root element.
var ErrNoRoot = errors.New("xmlparse: document has no root element")

// Parse reads one XML document from r and returns its root element with
// parent pointers and document ordinals assigned. Whitespace-only text
// between elements is dropped; all other character data is kept in
// document order. Comments and processing instructions are skipped.
func Parse(r io.Reader) (*xmldm.Node, error) {
	dec := xml.NewDecoder(r)
	var root *xmldm.Node
	var stack []*xmldm.Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmlparse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			name := localName(t.Name)
			if !isXMLName(name) {
				// encoding/xml lets some invalid local names through in
				// namespaced form (e.g. <a:0>); reject them here so
				// every parsed document re-serializes to valid XML.
				return nil, fmt.Errorf("xmlparse: invalid element name %q", name)
			}
			n := &xmldm.Node{Name: name}
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				an := localName(a.Name)
				if !isXMLName(an) {
					return nil, fmt.Errorf("xmlparse: invalid attribute name %q", an)
				}
				n.Attrs = append(n.Attrs, xmldm.Attr{Name: an, Value: a.Value})
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, errors.New("xmlparse: multiple root elements")
				}
				root = n
			} else {
				parent := stack[len(stack)-1]
				n.Parent = parent
				parent.Children = append(parent.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, errors.New("xmlparse: unbalanced end element")
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) == 0 {
				continue
			}
			s := string(t)
			if strings.TrimSpace(s) == "" {
				continue
			}
			parent := stack[len(stack)-1]
			parent.Children = append(parent.Children, xmldm.String(s))
		}
	}
	if root == nil {
		return nil, ErrNoRoot
	}
	if len(stack) != 0 {
		return nil, errors.New("xmlparse: unexpected end of input inside element")
	}
	xmldm.Finalize(root)
	return root, nil
}

// ParseString parses an XML document held in a string.
func ParseString(s string) (*xmldm.Node, error) { return Parse(strings.NewReader(s)) }

func localName(n xml.Name) string {
	// The integration engine works with local names: mediated schemas
	// define their own vocabulary, and sources' namespace prefixes are
	// metadata handled at the mapping layer.
	return n.Local
}

// isXMLName checks the (simplified, ASCII-leaning plus general Unicode
// letters) XML Name production: names must start with a letter or '_'
// and continue with letters, digits, '-', '.', or '_'.
func isXMLName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		letter := r == '_' || unicode.IsLetter(r)
		if i == 0 {
			if !letter {
				return false
			}
			continue
		}
		if !letter && !unicode.IsDigit(r) && r != '-' && r != '.' {
			return false
		}
	}
	return true
}
