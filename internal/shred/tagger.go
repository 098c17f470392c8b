package shred

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sort"

	"xomatiq/internal/sql"
	"xomatiq/internal/xmldoc"
)

// Reconstruct rebuilds a whole XML document from its shredded tuples —
// the expensive direction the paper warns about ("reconstruction of
// entire large XML document from the tuples is expensive compared to the
// query processing time", §3.3; measured by the ledger's shred.reconstruct_over_exec). Every read of the
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

// Documents rebuilds every document of db through view — a pinned
// snapshot or the writer's BatchView — in doc_id order, checking ctx
// between documents. It keeps nothing: the native evaluator reads the
// documents for one statement.
func (s *Store) Documents(ctx context.Context, db string, view *sql.Snap) ([]*xmldoc.Document, error) {
	rows, err := s.query(view, `SELECT doc_id FROM docs WHERE db = %s ORDER BY doc_id`, Quote(db))
	if err != nil {
		return nil, err
	}
	docs := make([]*xmldoc.Document, 0, len(rows.Rows))
	for _, r := range rows.Rows {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d, err := s.reconstruct(db, int(r[0].Int()), view)
		if err != nil {
			return nil, err
		}
		docs = append(docs, d)
	}
	return docs, nil
}

// Digests reads the stored digest of every document of db through view,
// keyed by entry name. A document with no digests row was loaded before
// digests were stored; it is rebuilt through the same view and digested,
// which yields the digest its load would have stored, since the round
// trip is lossless.
func (s *Store) Digests(db string, view *sql.Snap) (map[string][sha256.Size]byte, error) {
	rows, err := s.query(view, `SELECT doc_id, digest FROM digests WHERE db = %s`, Quote(db))
	if err != nil {
		return nil, err
	}
	stored := make(map[int64][]byte, len(rows.Rows))
	for _, r := range rows.Rows {
		stored[r[0].Int()] = r[1].Bytes()
	}
	if rows, err = s.query(view, `SELECT doc_id, name FROM docs WHERE db = %s`, Quote(db)); err != nil {
		return nil, err
	}
	out := make(map[string][sha256.Size]byte, len(rows.Rows))
	for _, r := range rows.Rows {
		id, name := r[0].Int(), r[1].Text()
		if d, ok := stored[id]; ok {
			if len(d) != sha256.Size {
				return nil, fmt.Errorf("shred: digest of %q in %q has %d bytes", name, db, len(d))
			}
			out[name] = [sha256.Size]byte(d)
			continue
		}
		doc, err := s.reconstruct(db, int(id), view)
		if err != nil {
			return nil, err
		}
		out[name] = doc.Digest()
	}
	return out, nil
}

func (s *Store) reconstruct(db string, docID int, snap *sql.Snap) (*xmldoc.Document, error) {
	nodeRows, err := s.query(snap,
		`SELECT node_id, parent_id, kind, name FROM nodes WHERE db = %s AND doc_id = %d`,
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
		node             *xmldoc.Node
	}
	items := make([]*shredded, 0, len(nodeRows.Rows))
	byID := map[int]*shredded{}
	for _, r := range nodeRows.Rows {
		it := &shredded{
			id:     int(r[0].Int()),
			parent: int(r[1].Int()),
			kind:   int(r[2].Int()),
			name:   r[3].Text(),
		}
		items = append(items, it)
		byID[it.id] = it
	}
	// Document order is node_id order ("order as a data value").
	sort.Slice(items, func(i, j int) bool { return items[i].id < items[j].id })

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
