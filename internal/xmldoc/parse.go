package xmldoc

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
)

// ParseOptions tune the parser.
type ParseOptions struct {
	// KeepSpace retains whitespace-only text nodes. The warehouse strips
	// them (the default) because they are indentation, not data.
	KeepSpace bool
}

// Parse parses an XML document from src. It supports the subset the Data
// Hounds emit and consume: declaration, elements, attributes, character
// data with entities, CDATA sections, comments and processing
// instructions (skipped). Namespaces are treated as plain name prefixes.
func Parse(src string, opts ParseOptions) (*Document, error) {
	p := &xparser{src: src, opts: opts}
	p.skipSpace()
	p.skipProlog()
	root, err := p.element()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	p.skipMisc()
	if p.pos < len(p.src) {
		return nil, p.errf("trailing content after document element")
	}
	return &Document{Root: root}, nil
}

// MustParse parses or panics; for tests and embedded fixtures.
func MustParse(src string) *Document {
	d, err := Parse(src, ParseOptions{})
	if err != nil {
		panic(err)
	}
	return d
}

type xparser struct {
	src  string
	pos  int
	opts ParseOptions
}

func (p *xparser) errf(format string, args ...any) error {
	line := 1 + strings.Count(p.src[:min(p.pos, len(p.src))], "\n")
	return fmt.Errorf("xmldoc: line %d: %s", line, fmt.Sprintf(format, args...))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (p *xparser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// skipProlog skips the XML declaration, doctype, comments and PIs before
// the root element.
func (p *xparser) skipProlog() {
	for {
		p.skipSpace()
		switch {
		case strings.HasPrefix(p.src[p.pos:], "<?"):
			if i := strings.Index(p.src[p.pos:], "?>"); i >= 0 {
				p.pos += i + 2
				continue
			}
			p.pos = len(p.src)
		case strings.HasPrefix(p.src[p.pos:], "<!--"):
			if i := strings.Index(p.src[p.pos:], "-->"); i >= 0 {
				p.pos += i + 3
				continue
			}
			p.pos = len(p.src)
		case strings.HasPrefix(p.src[p.pos:], "<!DOCTYPE"):
			// Skip to the matching '>' (internal subsets use brackets).
			depth := 0
			for i := p.pos; i < len(p.src); i++ {
				switch p.src[i] {
				case '[':
					depth++
				case ']':
					depth--
				case '>':
					if depth == 0 {
						p.pos = i + 1
						goto cont
					}
				}
			}
			p.pos = len(p.src)
		cont:
			continue
		default:
			return
		}
	}
}

func (p *xparser) skipMisc() {
	for {
		p.skipSpace()
		switch {
		case strings.HasPrefix(p.src[p.pos:], "<!--"):
			if i := strings.Index(p.src[p.pos:], "-->"); i >= 0 {
				p.pos += i + 3
				continue
			}
			p.pos = len(p.src)
		case strings.HasPrefix(p.src[p.pos:], "<?"):
			if i := strings.Index(p.src[p.pos:], "?>"); i >= 0 {
				p.pos += i + 2
				continue
			}
			p.pos = len(p.src)
		default:
			return
		}
	}
}

func isNameStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

func (p *xparser) name() (string, error) {
	start := p.pos
	if p.pos >= len(p.src) || !isNameStart(p.src[p.pos]) {
		return "", p.errf("expected name")
	}
	for p.pos < len(p.src) && isNameChar(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos], nil
}

// element parses one element starting at '<'.
func (p *xparser) element() (*Node, error) {
	if p.pos >= len(p.src) || p.src[p.pos] != '<' {
		return nil, p.errf("expected element")
	}
	p.pos++
	name, err := p.name()
	if err != nil {
		return nil, err
	}
	n := NewElement(name)
	// Attributes.
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return nil, p.errf("unterminated start tag <%s", name)
		}
		if strings.HasPrefix(p.src[p.pos:], "/>") {
			p.pos += 2
			return n, nil
		}
		if p.src[p.pos] == '>' {
			p.pos++
			break
		}
		aname, err := p.name()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != '=' {
			return nil, p.errf("attribute %q missing '='", aname)
		}
		p.pos++
		p.skipSpace()
		if p.pos >= len(p.src) || (p.src[p.pos] != '"' && p.src[p.pos] != '\'') {
			return nil, p.errf("attribute %q missing quote", aname)
		}
		q := p.src[p.pos]
		p.pos++
		end := strings.IndexByte(p.src[p.pos:], q)
		if end < 0 {
			return nil, p.errf("unterminated attribute value for %q", aname)
		}
		val, err := unescape(p.src[p.pos : p.pos+end])
		if err != nil {
			return nil, p.errf("%v", err)
		}
		n.SetAttr(aname, val)
		p.pos += end + 1
	}
	// Content.
	var text strings.Builder
	flush := func() {
		s := text.String()
		text.Reset()
		if s == "" {
			return
		}
		if !p.opts.KeepSpace && strings.TrimSpace(s) == "" {
			return
		}
		n.AddChild(NewText(s))
	}
	for {
		if p.pos >= len(p.src) {
			return nil, p.errf("unterminated element <%s>", name)
		}
		c := p.src[p.pos]
		if c != '<' {
			start := p.pos
			for p.pos < len(p.src) && p.src[p.pos] != '<' {
				p.pos++
			}
			chunk, err := unescape(p.src[start:p.pos])
			if err != nil {
				return nil, p.errf("%v", err)
			}
			text.WriteString(chunk)
			continue
		}
		switch {
		case strings.HasPrefix(p.src[p.pos:], "</"):
			flush()
			p.pos += 2
			end, err := p.name()
			if err != nil {
				return nil, err
			}
			if end != name {
				return nil, p.errf("mismatched end tag </%s> for <%s>", end, name)
			}
			p.skipSpace()
			if p.pos >= len(p.src) || p.src[p.pos] != '>' {
				return nil, p.errf("malformed end tag </%s", end)
			}
			p.pos++
			return n, nil
		case strings.HasPrefix(p.src[p.pos:], "<!--"):
			i := strings.Index(p.src[p.pos:], "-->")
			if i < 0 {
				return nil, p.errf("unterminated comment")
			}
			p.pos += i + 3
		case strings.HasPrefix(p.src[p.pos:], "<![CDATA["):
			i := strings.Index(p.src[p.pos:], "]]>")
			if i < 0 {
				return nil, p.errf("unterminated CDATA")
			}
			text.WriteString(p.src[p.pos+9 : p.pos+i])
			p.pos += i + 3
		case strings.HasPrefix(p.src[p.pos:], "<?"):
			i := strings.Index(p.src[p.pos:], "?>")
			if i < 0 {
				return nil, p.errf("unterminated processing instruction")
			}
			p.pos += i + 2
		default:
			flush()
			child, err := p.element()
			if err != nil {
				return nil, err
			}
			n.AddChild(child)
		}
	}
}

// unescape expands XML entities.
func unescape(s string) (string, error) {
	if !strings.ContainsRune(s, '&') {
		return s, nil
	}
	var sb strings.Builder
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			sb.WriteByte(c)
			i++
			continue
		}
		end := strings.IndexByte(s[i:], ';')
		if end < 0 {
			return "", fmt.Errorf("xmldoc: unterminated entity in %q", s)
		}
		ent := s[i+1 : i+end]
		switch {
		case ent == "lt":
			sb.WriteByte('<')
		case ent == "gt":
			sb.WriteByte('>')
		case ent == "amp":
			sb.WriteByte('&')
		case ent == "quot":
			sb.WriteByte('"')
		case ent == "apos":
			sb.WriteByte('\'')
		case strings.HasPrefix(ent, "#x") || strings.HasPrefix(ent, "#X"):
			n, err := strconv.ParseInt(ent[2:], 16, 32)
			if err != nil {
				return "", fmt.Errorf("xmldoc: bad character reference &%s;", ent)
			}
			sb.WriteRune(rune(n))
		case strings.HasPrefix(ent, "#"):
			n, err := strconv.ParseInt(ent[1:], 10, 32)
			if err != nil {
				return "", fmt.Errorf("xmldoc: bad character reference &%s;", ent)
			}
			sb.WriteRune(rune(n))
		default:
			return "", fmt.Errorf("xmldoc: unknown entity &%s;", ent)
		}
		i += end + 1
	}
	return sb.String(), nil
}

// A Replacer builds its lookup table on first use, which costs more than
// escaping a short string: both are built once (Replace is safe for
// concurrent use), not per call.
var (
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
)

// Escape escapes character data for element content.
func Escape(s string) string { return textEscaper.Replace(s) }

// EscapeAttr escapes an attribute value (double-quoted).
func EscapeAttr(s string) string { return attrEscaper.Replace(s) }

// SerializeOptions tune serialisation.
type SerializeOptions struct {
	Indent  string // "" for compact output
	NoDecl  bool   // omit the <?xml ...?> declaration
	Declare string // custom declaration; default standard UTF-8
}

// Serialize renders the document as XML text.
func (doc *Document) Serialize(opts SerializeOptions) string {
	var sb strings.Builder
	if !opts.NoDecl {
		if opts.Declare != "" {
			sb.WriteString(opts.Declare)
		} else {
			sb.WriteString(`<?xml version="1.0" encoding="UTF-8"?>`)
		}
		if opts.Indent != "" {
			sb.WriteByte('\n')
		}
	}
	writeNode(&sb, doc.Root, opts.Indent, 0)
	return sb.String()
}

// Digest is the SHA-256 of the document's compact serialisation (no
// declaration, no indentation): two entries with equal digests carry
// the same content. Update diffs a new harvest against the digests
// stored at load time instead of rebuilding the old one.
func (doc *Document) Digest() [sha256.Size]byte {
	return sha256.Sum256([]byte(doc.Serialize(SerializeOptions{NoDecl: true})))
}

// SerializeNode renders one subtree.
func SerializeNode(n *Node, opts SerializeOptions) string {
	var sb strings.Builder
	writeNode(&sb, n, opts.Indent, 0)
	return sb.String()
}

func writeNode(sb *strings.Builder, n *Node, indent string, depth int) {
	pad := func(d int) {
		if indent != "" {
			for i := 0; i < d; i++ {
				sb.WriteString(indent)
			}
		}
	}
	switch n.Kind {
	case KindText:
		sb.WriteString(Escape(n.Data))
		return
	case KindAttr:
		sb.WriteString(n.Name + `="` + EscapeAttr(n.Data) + `"`)
		return
	}
	pad(depth)
	sb.WriteByte('<')
	sb.WriteString(n.Name)
	for _, a := range n.Attrs {
		sb.WriteByte(' ')
		sb.WriteString(a.Name + `="` + EscapeAttr(a.Data) + `"`)
	}
	if len(n.Children) == 0 {
		sb.WriteString("/>")
		if indent != "" {
			sb.WriteByte('\n')
		}
		return
	}
	sb.WriteByte('>')
	// Mixed or text-only content prints inline; element-only content
	// nests with indentation.
	textOnly := true
	for _, c := range n.Children {
		if c.Kind != KindText {
			textOnly = false
			break
		}
	}
	if textOnly || indent == "" {
		for _, c := range n.Children {
			writeNode(sb, c, "", 0)
		}
	} else {
		sb.WriteByte('\n')
		for _, c := range n.Children {
			if c.Kind == KindText {
				pad(depth + 1)
				sb.WriteString(Escape(c.Data))
				sb.WriteByte('\n')
			} else {
				writeNode(sb, c, indent, depth+1)
			}
		}
		pad(depth)
	}
	sb.WriteString("</" + n.Name + ">")
	if indent != "" {
		sb.WriteByte('\n')
	}
}
