package shred

import (
	"fmt"
	"sort"

	"xomatiq/internal/sql"
	"xomatiq/internal/xmldoc"
)

// Reconstruct rebuilds a whole XML document from its shredded tuples —
// the expensive direction the paper warns about ("reconstruction of
// entire large XML document from the tuples is expensive compared to the
// query processing time", §3.3; measured by bench E7). Every read of the
// call goes through one pinned snapshot, so a reconstruction that
// overlaps a commit sees the document entirely before it or after it.
func (s *Store) Reconstruct(db string, docID int) (*xmldoc.Document, error) {
	snap := s.DB.AcquireSnapshot()
	defer s.DB.ReleaseSnapshot(snap)
	return s.reconstruct(db, docID, snap)
}

// ReconstructByName rebuilds a document by its entry key, looking the
// name up in the snapshot the document is read from.
func (s *Store) ReconstructByName(db, name string) (*xmldoc.Document, error) {
	snap := s.DB.AcquireSnapshot()
	defer s.DB.ReleaseSnapshot(snap)
	id, ok, err := s.docID(db, name, snap)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("shred: no document %q in %q", name, db)
	}
	return s.reconstruct(db, id, snap)
}

func (s *Store) reconstruct(db string, docID int, snap *sql.Snap) (*xmldoc.Document, error) {
	nodeRows, err := s.query(snap,
		`SELECT node_id, parent_id, kind, name, dewey FROM nodes WHERE db = %s AND doc_id = %d`,
		Quote(db), docID)
	if err != nil {
		return nil, err
	}
	if len(nodeRows.Rows) == 0 {
		return nil, fmt.Errorf("shred: document %d not found in %q", docID, db)
	}
	type shredded struct {
		id, parent, kind int
		name             string
		dewey            xmldoc.Dewey
		node             *xmldoc.Node
	}
	items := make([]*shredded, 0, len(nodeRows.Rows))
	byID := map[int]*shredded{}
	for _, r := range nodeRows.Rows {
		d, err := xmldoc.ParseSortKey(r[4].Text())
		if err != nil {
			return nil, err
		}
		it := &shredded{
			id:     int(r[0].Int()),
			parent: int(r[1].Int()),
			kind:   int(r[2].Int()),
			name:   r[3].Text(),
			dewey:  d,
		}
		items = append(items, it)
		byID[it.id] = it
	}
	// Document order from the Dewey labels ("order as a data value").
	sort.Slice(items, func(i, j int) bool { return items[i].dewey.Compare(items[j].dewey) < 0 })

	// Text payloads.
	text := map[int]string{}
	for _, table := range []string{"values_str", "seq_data"} {
		col := "val"
		if table == "seq_data" {
			col = "seq"
		}
		rows, err := s.query(snap, `SELECT node_id, %s FROM %s WHERE db = %s AND doc_id = %d`,
			col, table, Quote(db), docID)
		if err != nil {
			return nil, err
		}
		for _, r := range rows.Rows {
			text[int(r[0].Int())] = r[1].Text()
		}
	}

	var root *xmldoc.Node
	for _, it := range items {
		switch it.kind {
		case kindElem:
			it.node = xmldoc.NewElement(it.name)
		case kindAttr:
			it.node = &xmldoc.Node{Kind: xmldoc.KindAttr, Name: it.name, Data: text[it.id]}
		case kindText:
			it.node = xmldoc.NewText(text[it.id])
		default:
			return nil, fmt.Errorf("shred: unknown node kind %d", it.kind)
		}
		if it.parent < 0 {
			root = it.node
			continue
		}
		p := byID[it.parent]
		if p == nil || p.node == nil {
			return nil, fmt.Errorf("shred: node %d has dangling parent %d", it.id, it.parent)
		}
		if it.kind == kindAttr {
			it.node.Parent = p.node
			p.node.Attrs = append(p.node.Attrs, it.node)
		} else {
			p.node.AddChild(it.node)
		}
	}
	if root == nil {
		return nil, fmt.Errorf("shred: document %d has no root", docID)
	}
	rows, err := s.query(snap, `SELECT name FROM docs WHERE db = %s AND doc_id = %d`, Quote(db), docID)
	if err != nil {
		return nil, err
	}
	if len(rows.Rows) != 1 {
		return nil, fmt.Errorf("shred: document %d has %d docs rows", docID, len(rows.Rows))
	}
	return &xmldoc.Document{Name: rows.Rows[0][0].Text(), Root: root}, nil
}
