// bulk.go implements the deterministic parallel shredding path used by
// the harness ingest pipeline. A Shredder carries an immutable snapshot
// of one database's path dictionary, so worker goroutines can shred
// whole documents into in-memory tuple batches without taking any lock:
// paths missing from the snapshot are recorded per document in first
// encounter order and resolved to global ids by a single-threaded merge
// (InsertChunk) that runs in ascending document order. Because document
// ids are pre-assigned and the merge order is fixed, the resulting
// tuples, path ids and keyword postings are identical for any worker
// count — including workers=1, which is the sequential reference.
package shred

import (
	"crypto/sha256"
	"fmt"
	"maps"

	"xomatiq/internal/index/inverted"
	"xomatiq/internal/value"
	"xomatiq/internal/xmldoc"
)

// TokenSet is one value node's deduplicated keyword tokens, produced on
// a worker and merged into the inverted index in document order.
type TokenSet struct {
	Node   uint32
	Tokens []string
}

// DocBatch is the shredded form of one document: per-table tuple runs,
// the paths first seen while shredding it, and its keyword shard.
type DocBatch struct {
	DocID int
	Name  string
	// Digest is the document's xmldoc.Document.Digest, stored in the
	// digests table for Update to diff against.
	Digest [sha256.Size]byte

	// NewPaths lists dictionary paths absent from the Shredder's
	// snapshot, in first-encounter order. Tuples referencing one carry
	// its local index (position in NewPaths) as a placeholder path_id
	// until InsertChunk patches in the global id.
	NewPaths []string

	Nodes []value.Tuple // nodes rows, path_id at index 6
	Str   []value.Tuple // values_str rows, path_id at index 4
	Num   []value.Tuple // values_num rows, path_id at index 4
	Seq   []value.Tuple // seq_data rows, path_id at index 4

	KW []TokenSet

	patch []*value.Value // the placeholder path_ids
}

// Tuples counts the relational tuples the batch contributes, including
// its docs and digests rows (paths rows are counted by the merge).
func (b *DocBatch) Tuples() int {
	return 2 + len(b.Nodes) + len(b.Str) + len(b.Num) + len(b.Seq)
}

// Shredder is the immutable per-load state for parallel shredding. One
// Shredder is created per load; its methods are safe to call from many
// goroutines concurrently because they only read the snapshot.
type Shredder struct {
	db     string
	snap   map[string]int
	seqSet map[string]bool
}

// NewShredder snapshots the writer's path dictionary of db for a bulk
// load.
func (s *Store) NewShredder(db string) (*Shredder, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.work.dbs[db]
	if e == nil {
		return nil, fmt.Errorf("shred: database %q not registered", db)
	}
	// The sequence-path set is frozen at registration, so sharing it
	// with workers is race-free.
	return &Shredder{db: db, snap: maps.Clone(e.paths), seqSet: e.seqPaths}, nil
}

// ReserveDocID assigns the next document id of db. The pipeline
// producer calls this once per document, in stream order, before handing
// it to a worker, so ids follow the stream whatever the worker count.
func (s *Store) ReserveDocID(db string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.ownLocked(db)
	e.nextDoc++
	return e.nextDoc - 1
}

// shredState is the reusable walk state for one document. The path
// buffer grows by truncate-and-extend, so labelling a node allocates
// nothing beyond the strings stored in tuples.
type shredState struct {
	sh      *Shredder
	b       *DocBatch
	local   map[string]int32
	pathBuf []byte
	nodeID  int
	dbv     value.Value
	docv    value.Value
}

// Shred converts one document into a DocBatch without touching the
// store. Pure CPU: safe to run on any goroutine.
func (sh *Shredder) Shred(docID int, doc *xmldoc.Document) *DocBatch {
	b := &DocBatch{DocID: docID, Name: doc.Name, Digest: doc.Digest()}
	st := &shredState{
		sh:      sh,
		b:       b,
		pathBuf: make([]byte, 0, 128),
		dbv:     value.NewText(sh.db),
		docv:    value.NewInt(int64(docID)),
	}
	st.pathBuf = append(st.pathBuf, '/')
	st.pathBuf = append(st.pathBuf, doc.Root.Name...)
	st.walk(doc.Root, -1, 1, 0, len(st.pathBuf))
	return b
}

// pathID resolves the dictionary path in buf against the snapshot,
// falling back to a local placeholder for paths first seen in this
// document. patch reports whether the returned id is a placeholder.
func (st *shredState) pathID(buf []byte) (int64, bool) {
	if id, ok := st.sh.snap[string(buf)]; ok {
		return int64(id), false
	}
	if idx, ok := st.local[string(buf)]; ok {
		return int64(idx), true
	}
	p := string(buf)
	idx := int32(len(st.b.NewPaths))
	st.b.NewPaths = append(st.b.NewPaths, p)
	if st.local == nil {
		st.local = map[string]int32{}
	}
	st.local[p] = idx
	return int64(idx), true
}

// walk shreds the subtree at n, numbering its nodes in pre-order,
// attributes first. pathLen bounds the node's dictionary path in
// pathBuf.
func (st *shredState) walk(n *xmldoc.Node, parent, pos, depth, pathLen int) {
	id := st.nodeID
	st.nodeID++
	kind := kindElem
	switch n.Kind {
	case xmldoc.KindAttr:
		kind = kindAttr
	case xmldoc.KindText:
		kind = kindText
	}
	pid, patch := st.pathID(st.pathBuf[:pathLen])
	row := len(st.b.Nodes)
	st.b.Nodes = append(st.b.Nodes, value.Tuple{
		st.dbv, st.docv, value.NewInt(int64(id)), value.NewInt(int64(parent)),
		value.NewInt(int64(kind)), value.NewText(n.Name), value.NewInt(pid),
		value.NewInt(int64(pos)), value.NewInt(int64(depth)), value.NewInt(int64(id)),
	})
	if patch {
		st.b.patch = append(st.b.patch, &st.b.Nodes[row][6])
	}

	if n.Kind != xmldoc.KindElement {
		// Value rows. Text nodes share their parent element's path and
		// the sequence routing path is the owning element for text,
		// the attribute path for attributes — pathBuf[:pathLen] is
		// exactly that in both cases (see the recursion below).
		st.value(n.Data, id, parent, pid, patch, st.pathBuf[:pathLen])
		return
	}

	ord := 1
	for _, a := range n.Attrs {
		st.pathBuf = append(st.pathBuf[:pathLen], '/', '@')
		st.pathBuf = append(st.pathBuf, a.Name...)
		st.walk(a, id, ord, depth+1, len(st.pathBuf))
		ord++
	}
	for _, c := range n.Children {
		if c.Kind == xmldoc.KindElement {
			st.pathBuf = append(st.pathBuf[:pathLen], '/')
			st.pathBuf = append(st.pathBuf, c.Name...)
			st.walk(c, id, ord, depth+1, len(st.pathBuf))
		} else {
			// Text child: same dictionary path as this element.
			st.walk(c, id, ord, depth+1, pathLen)
		}
		ord++
	}
	// An element's last_desc is its subtree's highest id; a leaf keeps
	// its own, set above.
	st.b.Nodes[row][9] = value.NewInt(int64(st.nodeID - 1))
}

// value emits the value rows for a text or attribute node: sequence
// paths route to seq_data only; everything else lands in values_str,
// additionally in values_num when numeric, and contributes keyword
// tokens.
func (st *shredState) value(text string, id, parent int, pid int64, patch bool, seqPath []byte) {
	base := value.Tuple{
		st.dbv, st.docv, value.NewInt(int64(id)), value.NewInt(int64(parent)),
		value.NewInt(pid), value.NewText(text),
	}
	if patch {
		st.b.patch = append(st.b.patch, &base[4])
	}
	if st.sh.seqSet[string(seqPath)] {
		st.b.Seq = append(st.b.Seq, base)
		return
	}
	st.b.Str = append(st.b.Str, base)
	if f, ok := value.NewText(text).AsNumeric(); ok {
		num := value.Tuple{
			st.dbv, st.docv, value.NewInt(int64(id)), value.NewInt(int64(parent)),
			value.NewInt(pid), value.NewFloat(f),
		}
		st.b.Num = append(st.b.Num, num)
		if patch {
			st.b.patch = append(st.b.patch, &num[4])
		}
	}
	if toks := inverted.TokenizeDedup(text); len(toks) > 0 {
		st.b.KW = append(st.b.KW, TokenSet{Node: uint32(id), Tokens: toks})
	}
}

// resolve assigns global path ids to a batch's NewPaths in e (in batch
// order, so ids follow first encounter in document order, as a
// workers=1 load assigns them), patches its placeholder path_ids and
// returns the paths tuples for the entries it created. Batches MUST be
// resolved in ascending DocID order for path-id determinism.
func (e *dbDict) resolve(db string, b *DocBatch) []value.Tuple {
	if len(b.NewPaths) == 0 {
		return nil
	}
	var fresh []value.Tuple
	ids := make([]int64, len(b.NewPaths))
	for i, p := range b.NewPaths {
		id, ok := e.paths[p]
		if !ok {
			// First global encounter (an earlier batch of this load may
			// have introduced it already).
			id = e.nextPath
			e.nextPath++
			e.paths[p] = id
			fresh = append(fresh, value.Tuple{
				value.NewText(db), value.NewInt(int64(id)), value.NewText(p),
			})
		}
		ids[i] = int64(id)
	}
	for _, v := range b.patch {
		*v = value.NewInt(ids[v.Int()])
	}
	return fresh
}

// InsertChunk writes a run of shredded batches (ascending DocID) into
// the relational engine as one bulk insert per table: path dictionary
// rows first, then docs, digests, nodes and the value tables. Their new
// paths and keyword postings go into the writer's dictionary, which the
// commit of the caller's batch publishes with the rows and a rollback
// drops with them.
func (s *Store) InsertChunk(db string, batches []*DocBatch) error {
	var nNodes, nStr, nNum, nSeq int
	for _, b := range batches {
		nNodes += len(b.Nodes)
		nStr += len(b.Str)
		nNum += len(b.Num)
		nSeq += len(b.Seq)
	}
	var paths []value.Tuple
	docs := make([]value.Tuple, 0, len(batches))
	digests := make([]value.Tuple, 0, len(batches))
	nodes := make([]value.Tuple, 0, nNodes)
	str := make([]value.Tuple, 0, nStr)
	num := make([]value.Tuple, 0, nNum)
	seq := make([]value.Tuple, 0, nSeq)
	s.mu.Lock()
	e := s.ownLocked(db)
	if e == nil {
		s.mu.Unlock()
		return fmt.Errorf("shred: database %q not registered", db)
	}
	for _, b := range batches {
		paths = append(paths, e.resolve(db, b)...)
		for _, ts := range b.KW {
			e.kw.AddTokens(uint32(b.DocID), ts.Node, ts.Tokens)
		}
	}
	s.mu.Unlock()
	for _, b := range batches {
		docs = append(docs, value.Tuple{
			value.NewText(db), value.NewInt(int64(b.DocID)), value.NewText(b.Name),
		})
		digests = append(digests, value.Tuple{
			value.NewText(db), value.NewInt(int64(b.DocID)), value.NewBytes(b.Digest[:]),
		})
		nodes = append(nodes, b.Nodes...)
		str = append(str, b.Str...)
		num = append(num, b.Num...)
		seq = append(seq, b.Seq...)
	}
	for _, run := range []struct {
		table  string
		tuples []value.Tuple
	}{
		{"paths", paths}, {"docs", docs}, {"digests", digests}, {"nodes", nodes},
		{"values_str", str}, {"values_num", num}, {"seq_data", seq},
	} {
		if err := s.DB.InsertBatch(run.table, run.tuples); err != nil {
			return err
		}
	}
	return nil
}

// Deprecated: MergeKeywords does nothing, kept for the ledger;
// InsertChunk merges a chunk's keyword postings in the batch of its rows.
func (s *Store) MergeKeywords(string, *DocBatch) {}
