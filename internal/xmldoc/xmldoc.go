// Package xmldoc provides the ordered XML document model used throughout
// XomatiQ: a node tree with stable document order, Dewey order labels
// (Tatarinov et al., SIGMOD 2002 — the order-encoding the paper cites for
// "treating order as a data value"; the native evaluator compares them,
// the warehouse stores pre-order node ids instead), parsing and
// serialisation.
package xmldoc

import (
	"fmt"
	"sort"
	"strings"
)

// NodeKind distinguishes the node types the warehouse stores.
type NodeKind uint8

// Node kinds.
const (
	KindElement NodeKind = iota
	KindAttr
	KindText
)

// String names the kind.
func (k NodeKind) String() string {
	switch k {
	case KindElement:
		return "element"
	case KindAttr:
		return "attribute"
	case KindText:
		return "text"
	}
	return fmt.Sprintf("NodeKind(%d)", uint8(k))
}

// Node is one node of a document tree. Text and attribute nodes carry
// Data; element nodes carry Children and Attrs.
type Node struct {
	Kind     NodeKind
	Name     string // element/attribute name; empty for text
	Data     string // text content or attribute value
	Parent   *Node
	Children []*Node // element and text children, in document order
	Attrs    []*Node // attribute nodes, in document order
}

// Document is a parsed XML document.
type Document struct {
	Name string // document identity within its database (e.g. entry id)
	Root *Node
}

// NewElement makes an element node.
func NewElement(name string) *Node { return &Node{Kind: KindElement, Name: name} }

// NewText makes a text node.
func NewText(data string) *Node { return &Node{Kind: KindText, Data: data} }

// AddChild appends c to n's children and sets its parent.
func (n *Node) AddChild(c *Node) *Node {
	c.Parent = n
	n.Children = append(n.Children, c)
	return c
}

// SetAttr adds (or replaces) an attribute.
func (n *Node) SetAttr(name, val string) {
	for _, a := range n.Attrs {
		if a.Name == name {
			a.Data = val
			return
		}
	}
	a := &Node{Kind: KindAttr, Name: name, Data: val, Parent: n}
	n.Attrs = append(n.Attrs, a)
}

// Attr returns the attribute value and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Data, true
		}
	}
	return "", false
}

// AddText appends a text child (convenience for builders).
func (n *Node) AddText(data string) { n.AddChild(NewText(data)) }

// Text returns the concatenated text content of the subtree.
func (n *Node) Text() string {
	if n.Kind == KindText || n.Kind == KindAttr {
		return n.Data
	}
	var sb strings.Builder
	var walk func(*Node)
	walk = func(m *Node) {
		for _, c := range m.Children {
			if c.Kind == KindText {
				sb.WriteString(c.Data)
			} else {
				walk(c)
			}
		}
	}
	walk(n)
	return sb.String()
}

// ChildElements returns the element children with the given name (all
// element children when name is empty).
func (n *Node) ChildElements(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == KindElement && (name == "" || c.Name == name) {
			out = append(out, c)
		}
	}
	return out
}

// FirstChild returns the first element child with the given name, or nil.
func (n *Node) FirstChild(name string) *Node {
	for _, c := range n.Children {
		if c.Kind == KindElement && c.Name == name {
			return c
		}
	}
	return nil
}

// Descendants calls fn for every node in the subtree (elements, text and
// attributes) in document order, including n itself. Attributes visit
// directly after their owner element, before its children (the document
// order the shredder assigns).
func (n *Node) Descendants(fn func(*Node) bool) bool {
	if !fn(n) {
		return false
	}
	if n.Kind == KindElement {
		for _, a := range n.Attrs {
			if !fn(a) {
				return false
			}
		}
		for _, c := range n.Children {
			if !c.Descendants(fn) {
				return false
			}
		}
	}
	return true
}

// DescendantElements returns all descendant elements (not including n)
// with the given name, in document order. A name of "" matches all.
func (n *Node) DescendantElements(name string) []*Node {
	var out []*Node
	n.Descendants(func(m *Node) bool {
		if m != n && m.Kind == KindElement && (name == "" || m.Name == name) {
			out = append(out, m)
		}
		return true
	})
	return out
}

// Path returns the absolute element path of the node, e.g.
// "/hlx_enzyme/db_entry/enzyme_id" (attributes append "/@name"; text
// nodes use their parent's path).
func (n *Node) Path() string {
	switch n.Kind {
	case KindText:
		if n.Parent != nil {
			return n.Parent.Path()
		}
		return ""
	case KindAttr:
		if n.Parent != nil {
			return n.Parent.Path() + "/@" + n.Name
		}
		return "/@" + n.Name
	}
	var parts []string
	for m := n; m != nil; m = m.Parent {
		parts = append(parts, m.Name)
	}
	// Reverse.
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return "/" + strings.Join(parts, "/")
}

// Dewey is an order label: the path of sibling ordinals from the root.
// Comparing Deweys lexicographically (component-wise) gives document
// order; prefix relationships give ancestry.
type Dewey []int

// String renders "1.3.2".
func (d Dewey) String() string {
	parts := make([]string, len(d))
	for i, c := range d {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return strings.Join(parts, ".")
}

// Compare orders two Dewey labels in document order.
func (d Dewey) Compare(o Dewey) int {
	n := len(d)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if d[i] != o[i] {
			if d[i] < o[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(d) < len(o):
		return -1
	case len(d) > len(o):
		return 1
	}
	return 0
}

// AssignDeweys walks the document assigning a Dewey label to every node
// (elements, attributes and text), returning the mapping. Attributes and
// children share one ordinal space, attributes first, matching
// Descendants order.
func (doc *Document) AssignDeweys() map[*Node]Dewey {
	labels := make(map[*Node]Dewey)
	var walk func(n *Node, d Dewey)
	walk = func(n *Node, d Dewey) {
		labels[n] = d
		ord := 1
		for _, a := range n.Attrs {
			labels[a] = append(append(Dewey{}, d...), ord)
			ord++
		}
		for _, c := range n.Children {
			walk(c, append(append(Dewey{}, d...), ord))
			ord++
		}
	}
	walk(doc.Root, Dewey{1})
	return labels
}

// Equal reports deep equality of two trees (used by round-trip tests).
func Equal(a, b *Node) bool {
	if a.Kind != b.Kind || a.Name != b.Name || a.Data != b.Data {
		return false
	}
	if len(a.Children) != len(b.Children) || len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for i := range a.Attrs {
		if !Equal(a.Attrs[i], b.Attrs[i]) {
			return false
		}
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// CountNodes reports the number of nodes in the subtree by kind.
func CountNodes(n *Node) (elements, attrs, texts int) {
	n.Descendants(func(m *Node) bool {
		switch m.Kind {
		case KindElement:
			elements++
		case KindAttr:
			attrs++
		case KindText:
			texts++
		}
		return true
	})
	return
}

// ElementNames returns the distinct element names in the subtree, sorted.
func ElementNames(n *Node) []string {
	seen := map[string]bool{}
	n.Descendants(func(m *Node) bool {
		if m.Kind == KindElement {
			seen[m.Name] = true
		}
		return true
	})
	names := make([]string, 0, len(seen))
	for s := range seen {
		names = append(names, s)
	}
	sort.Strings(names)
	return names
}
