package xdm

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// NodeKind identifies the kind of an XML node.
type NodeKind uint8

// Node kinds supported by the view data model. Document nodes are not
// needed: views always have a single constructed root element.
const (
	ElementNode NodeKind = iota
	AttributeNode
	TextNode
)

// Node is an XML node. Elements have a Name and content: attribute nodes
// (Attrs) and child element and text nodes (Children), kept in one list
// with the attributes first. Attribute and text nodes have a Name (empty for
// text) and a string, Text, and no content; an element has no text. Nodes
// form trees; the model is ordered (document order = list order). The zero
// Node is an element with no name and no content.
//
// The layout keeps a node at 32 bytes, so a block of Chunks holds 680 of
// them: the name, one pointer, a length and a word holding the kind and the
// attribute count. Which of text and content a node has follows from its
// kind, so the two share the pointer and the length, the way Value's one
// pointer is a string's bytes, a node or a sequence; the casts live in
// value.go with Value's (nodeRef). An empty text or list keeps nil. A
// node holds at most math.MaxUint32 bytes of text or entries of content, and
// an element at most maxAttrs attributes.
//
// A node is immutable once the code that constructed it hands it out:
// AppendChild/AppendContent are for the constructor that still owns the
// element. Everything downstream relies on this — element content is shared
// between parents rather than copied (an OLD_NODE and a NEW_NODE, or two
// operators' outputs, may point into the same subtrees), and nodes cross
// goroutines through the dispatcher without synchronisation.
type Node struct {
	Name string  // element/attribute name; empty for text nodes
	ref  nodeRef // the text's bytes, or an element's content list
	n    uint32  // bytes of text or entries of content
	meta uint32  // the kind in the low kindBits bits, the attribute count above
}

// kindBits is the width of the kind in Node.meta; maxAttrs is the most
// attributes the rest of the word counts.
const (
	kindBits = 2
	maxAttrs = math.MaxUint32 >> kindBits
)

// Kind reports the node's kind.
func (n *Node) Kind() NodeKind { return NodeKind(n.meta & (1<<kindBits - 1)) }

// Text returns an attribute's value or a text node's content; "" for an
// element.
func (n *Node) Text() string {
	if n.Kind() == ElementNode {
		return ""
	}
	return n.ref.text(n.n)
}

// nattrs is the number of attributes, the first entries of content().
func (n *Node) nattrs() int { return int(n.meta >> kindBits) }

// content is an element's list, attributes first; nil for other kinds.
func (n *Node) content() []*Node {
	if n.Kind() != ElementNode {
		return nil
	}
	return n.ref.list(n.n)
}

// setText makes n a node of kind k holding s.
func (n *Node) setText(k NodeKind, s string) {
	n.ref, n.n, n.meta = textRef(s), length(len(s)), uint32(k)
}

// setContent makes n an element whose list is l, its first attrs entries
// the attributes.
func (n *Node) setContent(l []*Node, attrs int) {
	if attrs < 0 || attrs > len(l) || attrs > maxAttrs {
		panic(fmt.Sprintf("xdm: %d attributes in a list of %d", attrs, len(l)))
	}
	n.ref, n.n, n.meta = listRef(l), length(len(l)), uint32(ElementNode)|uint32(attrs)<<kindBits
}

// length checks that a node can hold k bytes or entries.
func length(k int) uint32 {
	if uint64(k) > math.MaxUint32 {
		panic(fmt.Sprintf("xdm: %d bytes or entries do not fit a node", k))
	}
	return uint32(k)
}

// NewNode returns a node of kind k: for an element, one whose first attrs
// content nodes are its attributes and the rest its children, whatever
// their kinds (nil included); for an attribute or a text node, one holding
// text. It is the constructor of decoders, which rebuild a node as it was
// encoded. The node holds exactly the XML data model's shapes: an element
// has no text, and an attribute or text node has no attributes or children.
// A decoder rejects any other shape before calling NewNode, which panics on
// one, as it does on an unknown kind. An element keeps content as its list
// (without its spare capacity).
func NewNode(k NodeKind, name, text string, attrs int, content []*Node) *Node {
	n := &Node{Name: name}
	switch {
	case k == ElementNode && text == "":
		n.setContent(content, attrs)
	case (k == AttributeNode || k == TextNode) && attrs == 0 && len(content) == 0:
		n.setText(k, text)
	default:
		panic(fmt.Sprintf("xdm: no node of kind %d has text %q, %d attributes and %d content nodes", k, text, attrs, len(content)))
	}
	return n
}

// Attrs returns the attribute nodes of an element. The slice has no spare
// capacity, so appending to it never writes over the children.
func (n *Node) Attrs() []*Node {
	na := n.nattrs()
	return n.content()[:na:na]
}

// Children returns the child element and text nodes of an element.
func (n *Node) Children() []*Node { return n.content()[n.nattrs():] }

// Elem constructs an element node with the given children. Attribute nodes
// in children become its attributes, in order; everything else becomes
// child content. Nil children are skipped.
func Elem(name string, children ...*Node) *Node {
	e := &Node{Name: name}
	k, na := 0, 0
	for _, c := range children {
		if c != nil {
			k++
			if c.Kind() == AttributeNode {
				na++
			}
		}
	}
	if k == 0 {
		return e
	}
	l := make([]*Node, k)
	a, i := 0, na
	for _, c := range children {
		switch {
		case c == nil:
		case c.Kind() == AttributeNode:
			l[a] = c
			a++
		default:
			l[i] = c
			i++
		}
	}
	e.setContent(l, na)
	return e
}

// Attr constructs an attribute node.
func Attr(name, value string) *Node {
	n := &Node{Name: name}
	n.setText(AttributeNode, value)
	return n
}

// TextNd constructs a text node.
func TextNd(s string) *Node {
	n := new(Node)
	n.setText(TextNode, s)
	return n
}

// AppendChild appends c to the element's content (or attributes when c is
// an attribute node) and returns n for chaining. Each call replaces the
// element's list with a longer one: a constructor that appends many
// children collects them first.
func (n *Node) AppendChild(c *Node) *Node {
	if c == nil {
		return n
	}
	if n.Kind() != ElementNode {
		panic("xdm: AppendChild to an attribute or text node")
	}
	l, na := n.content(), n.nattrs()
	if c.Kind() == AttributeNode {
		l = slices.Insert(l, na, c)
		na++
	} else {
		l = append(l, c)
	}
	n.setContent(l, na)
	return n
}

// AppendContent appends vs to the element under construction the way an XML
// element constructor does: Null adds nothing, a node is shared (not
// copied; attribute nodes join the attributes), a sequence is spliced item
// by item, and any other value becomes a text node of its lexical form. It
// is the one definition of element-content assembly, used by the
// evaluator's constructor and by the SQL shim's xml_element alike. The
// element's list is replaced once, by one of exactly the new length, and it
// and the text nodes come from c (a zero Chunks allocates each on its own).
func (n *Node) AppendContent(c *Chunks, vs ...Value) {
	attrs, children := contentLen(vs)
	if attrs+children == 0 {
		return
	}
	old, na := n.content(), n.nattrs()
	l := c.list(len(old) + attrs + children)
	copy(l, old[:na])
	copy(l[na+attrs:], old[na:])
	a, k := na, len(old)+attrs // where the new attributes and children go
	fill(c, l, vs, &a, &k)
	n.setContent(l, na+attrs)
}

// fill stores the content vs makes in l at *a (attributes) and *k (the
// rest), advancing them.
func fill(c *Chunks, l []*Node, vs []Value, a, k *int) {
	for _, v := range vs {
		var x *Node
		switch v.kind {
		case KindNull:
		case KindSeq:
			fill(c, l, v.seq(), a, k)
		case KindNode:
			x = v.node()
		default:
			x = c.text(v)
		}
		switch {
		case x == nil:
		case x.Kind() == AttributeNode:
			l[*a] = x
			*a++
		default:
			l[*k] = x
			*k++
		}
	}
}

// contentLen counts the attributes and the other nodes fill adds for vs.
func contentLen(vs []Value) (attrs, children int) {
	for _, v := range vs {
		switch {
		case v.kind == KindNull || v.kind == KindNode && v.node() == nil:
		case v.kind == KindSeq:
			a, c := contentLen(v.seq())
			attrs, children = attrs+a, children+c
		case v.kind == KindNode && v.node().Kind() == AttributeNode:
			attrs++
		default:
			children++
		}
	}
	return attrs, children
}

// Attribute returns the value of the named attribute and whether it exists.
func (n *Node) Attribute(name string) (string, bool) {
	for _, a := range n.Attrs() {
		if a.Name == name {
			return a.Text(), true
		}
	}
	return "", false
}

// ChildElements returns the child elements with the given name; "*" matches
// all element children.
func (n *Node) ChildElements(name string) []*Node {
	var out []*Node
	for _, c := range n.Children() {
		if c.Kind() == ElementNode && (name == "*" || c.Name == name) {
			out = append(out, c)
		}
	}
	return out
}

// Descendants appends to out all descendant elements (excluding n itself)
// matching name ("*" for any), in document order.
func (n *Node) Descendants(name string, out []*Node) []*Node {
	for _, c := range n.Children() {
		if c.Kind() != ElementNode {
			continue
		}
		if name == "*" || c.Name == name {
			out = append(out, c)
		}
		out = c.Descendants(name, out)
	}
	return out
}

// TextContent returns the concatenated text content of the subtree, i.e.
// the XQuery string value of the node.
func (n *Node) TextContent() string {
	if n == nil {
		return ""
	}
	if n.Kind() != ElementNode {
		return n.Text()
	}
	var sb strings.Builder
	n.writeText(&sb)
	return sb.String()
}

func (n *Node) writeText(sb *strings.Builder) {
	for _, c := range n.Children() {
		switch c.Kind() {
		case TextNode:
			sb.WriteString(c.Text())
		case ElementNode:
			c.writeText(sb)
		}
	}
}

// DeepEqual reports structural equality: same kind, name, text, attributes
// (order-insensitive, per the XML data model) and children (order-sensitive).
// A node is equal to itself without a walk: subtrees are shared between an
// OLD_NODE and a NEW_NODE wherever the statement changed nothing.
func (n *Node) DeepEqual(m *Node) bool {
	if n == m || n == nil || m == nil {
		return n == m
	}
	// meta is the kind and the attribute count, n the text's or the list's
	// length.
	if n.meta != m.meta || n.n != m.n || n.Name != m.Name {
		return false
	}
	if n.Kind() != ElementNode {
		return n.Text() == m.Text()
	}
	// Attribute lists are short: a nested loop, no map.
	attrs := n.Attrs()
	for _, b := range m.Attrs() {
		if i := slices.IndexFunc(attrs, func(a *Node) bool { return a.Name == b.Name }); i < 0 || attrs[i].Text() != b.Text() {
			return false
		}
	}
	kids := m.Children()
	for i, c := range n.Children() {
		if !c.DeepEqual(kids[i]) {
			return false
		}
	}
	return true
}

// Serialize renders the subtree as XML text. When indent is true a
// two-space indented multi-line form is produced.
func (n *Node) Serialize(indent bool) string {
	if n == nil {
		return ""
	}
	var sb strings.Builder
	n.serialize(&sb, indent, 0)
	return sb.String()
}

func (n *Node) serialize(sb *strings.Builder, indent bool, depth int) {
	pad := ""
	if indent {
		pad = strings.Repeat("  ", depth)
	}
	switch n.Kind() {
	case TextNode:
		sb.WriteString(pad)
		escapeText(sb, n.Text())
		if indent {
			sb.WriteByte('\n')
		}
	case AttributeNode:
		// A bare attribute serialized alone (diagnostics only).
		sb.WriteString(pad)
		sb.WriteString(n.Name)
		sb.WriteString(`="`)
		escapeAttr(sb, n.Text())
		sb.WriteString(`"`)
		if indent {
			sb.WriteByte('\n')
		}
	case ElementNode:
		sb.WriteString(pad)
		sb.WriteByte('<')
		sb.WriteString(n.Name)
		// Stable attribute order for deterministic serialization.
		attrs := n.Attrs()
		if len(attrs) > 1 {
			attrs = append([]*Node(nil), attrs...)
			sort.SliceStable(attrs, func(i, j int) bool { return attrs[i].Name < attrs[j].Name })
		}
		for _, a := range attrs {
			sb.WriteByte(' ')
			sb.WriteString(a.Name)
			sb.WriteString(`="`)
			escapeAttr(sb, a.Text())
			sb.WriteString(`"`)
		}
		kids := n.Children()
		if len(kids) == 0 {
			sb.WriteString("/>")
			if indent {
				sb.WriteByte('\n')
			}
			return
		}
		sb.WriteByte('>')
		onlyText := true
		for _, c := range kids {
			if c.Kind() != TextNode {
				onlyText = false
				break
			}
		}
		if indent && !onlyText {
			sb.WriteByte('\n')
			for _, c := range kids {
				c.serialize(sb, true, depth+1)
			}
			sb.WriteString(pad)
		} else {
			for _, c := range kids {
				c.serialize(sb, false, 0)
			}
		}
		sb.WriteString("</")
		sb.WriteString(n.Name)
		sb.WriteByte('>')
		if indent {
			sb.WriteByte('\n')
		}
	}
}

func escapeText(sb *strings.Builder, s string) {
	for _, r := range s {
		switch r {
		case '&':
			sb.WriteString("&amp;")
		case '<':
			sb.WriteString("&lt;")
		case '>':
			sb.WriteString("&gt;")
		default:
			sb.WriteRune(r)
		}
	}
}

func escapeAttr(sb *strings.Builder, s string) {
	for _, r := range s {
		switch r {
		case '&':
			sb.WriteString("&amp;")
		case '<':
			sb.WriteString("&lt;")
		case '"':
			sb.WriteString("&quot;")
		default:
			sb.WriteRune(r)
		}
	}
}

// Parse parses a small subset of XML sufficient to round-trip Serialize
// output: elements, attributes, text, entities, self-closing tags. Elements
// may nest maxParseDepth deep.
func Parse(s string) (*Node, error) {
	p := &xmlParser{src: s}
	p.skipSpace()
	n, err := p.parseElement()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("xdm: trailing content at offset %d", p.pos)
	}
	return n, nil
}

// maxParseDepth bounds how deeply parsed elements may nest. parseElement
// recurses once per level and the text comes from outside (SQL text reaches
// it through xml_parse), so without a bound a few megabytes of "<a>" overflow
// the stack — which kills the process; it is not a panic. The XQuery and
// trigger parsers draw the same line.
const maxParseDepth = 256

type xmlParser struct {
	src   string
	pos   int
	depth int
}

func (p *xmlParser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *xmlParser) parseElement() (*Node, error) {
	if p.pos >= len(p.src) || p.src[p.pos] != '<' {
		return nil, fmt.Errorf("xdm: expected '<' at offset %d", p.pos)
	}
	p.pos++
	name := p.parseName()
	if name == "" {
		return nil, fmt.Errorf("xdm: expected element name at offset %d", p.pos)
	}
	if p.depth++; p.depth > maxParseDepth {
		return nil, fmt.Errorf("xdm: elements nest deeper than %d levels at offset %d", maxParseDepth, p.pos)
	}
	// The content is collected here and stored once: each store replaces
	// the element's list, so storing child by child would copy it each time.
	var content []*Node
	na := 0
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return nil, fmt.Errorf("xdm: unexpected end of input in <%s>", name)
		}
		if strings.HasPrefix(p.src[p.pos:], "/>") {
			p.pos += 2
			p.depth--
			return NewNode(ElementNode, name, "", na, content), nil
		}
		if p.src[p.pos] == '>' {
			p.pos++
			break
		}
		an := p.parseName()
		if an == "" {
			return nil, fmt.Errorf("xdm: expected attribute name at offset %d", p.pos)
		}
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != '=' {
			return nil, fmt.Errorf("xdm: expected '=' after attribute %q", an)
		}
		p.pos++
		p.skipSpace()
		if p.pos >= len(p.src) || (p.src[p.pos] != '"' && p.src[p.pos] != '\'') {
			return nil, fmt.Errorf("xdm: expected quoted value for attribute %q", an)
		}
		q := p.src[p.pos]
		p.pos++
		start := p.pos
		for p.pos < len(p.src) && p.src[p.pos] != q {
			p.pos++
		}
		if p.pos >= len(p.src) {
			return nil, fmt.Errorf("xdm: unterminated attribute value for %q", an)
		}
		content = append(content, Attr(an, unescape(p.src[start:p.pos])))
		na++
		p.pos++
	}
	// Content.
	for {
		if p.pos >= len(p.src) {
			return nil, fmt.Errorf("xdm: missing </%s>", name)
		}
		if strings.HasPrefix(p.src[p.pos:], "</") {
			p.pos += 2
			cn := p.parseName()
			if cn != name {
				return nil, fmt.Errorf("xdm: mismatched close tag </%s>, want </%s>", cn, name)
			}
			p.skipSpace()
			if p.pos >= len(p.src) || p.src[p.pos] != '>' {
				return nil, fmt.Errorf("xdm: expected '>' closing </%s>", name)
			}
			p.pos++
			p.depth--
			return NewNode(ElementNode, name, "", na, content), nil
		}
		if p.src[p.pos] == '<' {
			c, err := p.parseElement()
			if err != nil {
				return nil, err
			}
			content = append(content, c)
			continue
		}
		start := p.pos
		for p.pos < len(p.src) && p.src[p.pos] != '<' {
			p.pos++
		}
		txt := unescape(p.src[start:p.pos])
		if strings.TrimSpace(txt) != "" {
			content = append(content, TextNd(txt))
		}
	}
}

func (p *xmlParser) parseName() string {
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '>' || c == '=' || c == '/' || c == '<' {
			break
		}
		p.pos++
	}
	return p.src[start:p.pos]
}

func unescape(s string) string {
	if !strings.Contains(s, "&") {
		return s
	}
	r := strings.NewReplacer("&lt;", "<", "&gt;", ">", "&quot;", `"`, "&amp;", "&")
	return r.Replace(s)
}
