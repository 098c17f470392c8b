package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"xomatiq/internal/storage/bufpool"
	"xomatiq/internal/storage/disk"
)

func newTree(t *testing.T) (*Tree, *bufpool.Pool) {
	t.Helper()
	mgr, err := disk.Open(filepath.Join(t.TempDir(), "btree.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	pool := bufpool.New(mgr, 256)
	tr, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	return tr, pool
}

func TestInsertGetSmall(t *testing.T) {
	tr, _ := newTree(t)
	ok, err := tr.Insert([]byte("enzyme"), []byte("1.14.17.3"))
	if err != nil || !ok {
		t.Fatalf("Insert: %v ok=%v", err, ok)
	}
	val, ok, err := tr.Get([]byte("enzyme"))
	if err != nil || !ok || string(val) != "1.14.17.3" {
		t.Errorf("Get = %q %v %v", val, ok, err)
	}
	if _, ok, _ := tr.Get([]byte("absent")); ok {
		t.Error("Get of absent key returned ok")
	}
}

func TestInsertReplace(t *testing.T) {
	tr, _ := newTree(t)
	tr.Insert([]byte("k"), []byte("v1"))
	ok, err := tr.Insert([]byte("k"), []byte("longer-value-2"))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("replacement reported as new key")
	}
	val, _, _ := tr.Get([]byte("k"))
	if string(val) != "longer-value-2" {
		t.Errorf("after replace Get = %q", val)
	}
	if n, _ := tr.Len(); n != 1 {
		t.Errorf("Len = %d, want 1", n)
	}
}

func TestKeyValidation(t *testing.T) {
	tr, _ := newTree(t)
	if _, err := tr.Insert(nil, []byte("v")); err == nil {
		t.Error("empty key should fail")
	}
	if _, err := tr.Insert(make([]byte, MaxKey+1), nil); err == nil {
		t.Error("oversized key should fail")
	}
	if _, err := tr.Insert([]byte("k"), make([]byte, MaxValue+1)); err == nil {
		t.Error("oversized value should fail")
	}
}

func TestManyInsertsSplitsAndOrder(t *testing.T) {
	tr, _ := newTree(t)
	const n = 5000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		key := []byte(fmt.Sprintf("key-%06d", i))
		val := []byte(fmt.Sprintf("val-%d", i))
		if _, err := tr.Insert(key, val); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if got, _ := tr.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	// Every key resolvable.
	for i := 0; i < n; i += 37 {
		key := []byte(fmt.Sprintf("key-%06d", i))
		val, ok, err := tr.Get(key)
		if err != nil || !ok || string(val) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get(%s) = %q %v %v", key, val, ok, err)
		}
	}
	// Full scan is sorted and complete.
	it := tr.Seek(nil)
	count := 0
	var prev []byte
	for it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatal("scan out of order")
		}
		prev = append(prev[:0], it.Key()...)
		count++
	}
	if it.Err() != nil || count != n {
		t.Fatalf("scan count = %d err %v", count, it.Err())
	}
}

func TestLargeKeysForceManySplits(t *testing.T) {
	tr, _ := newTree(t)
	const n = 600
	for i := 0; i < n; i++ {
		key := append([]byte(fmt.Sprintf("%05d-", i)), bytes.Repeat([]byte{'k'}, 900)...)
		if _, err := tr.Insert(key, bytes.Repeat([]byte{'v'}, 400)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if got, _ := tr.Len(); got != n {
		t.Errorf("Len = %d, want %d", got, n)
	}
	if err := tr.Check(); err != nil {
		t.Error(err)
	}
}

func TestDelete(t *testing.T) {
	tr, _ := newTree(t)
	for i := 0; i < 1000; i++ {
		tr.Insert([]byte(fmt.Sprintf("k%04d", i)), []byte("v"))
	}
	for i := 0; i < 1000; i += 2 {
		ok, err := tr.Delete([]byte(fmt.Sprintf("k%04d", i)))
		if err != nil || !ok {
			t.Fatalf("Delete %d: %v %v", i, ok, err)
		}
	}
	if ok, _ := tr.Delete([]byte("absent")); ok {
		t.Error("Delete of absent key reported ok")
	}
	if n, _ := tr.Len(); n != 500 {
		t.Errorf("Len after deletes = %d, want 500", n)
	}
	for i := 0; i < 1000; i++ {
		_, ok, _ := tr.Get([]byte(fmt.Sprintf("k%04d", i)))
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get %d present=%v, want %v", i, ok, want)
		}
	}
}

func TestSeekAndRange(t *testing.T) {
	tr, _ := newTree(t)
	for i := 0; i < 100; i += 10 {
		tr.Insert([]byte(fmt.Sprintf("k%03d", i)), []byte{byte(i)})
	}
	it := tr.Seek([]byte("k025"))
	if !it.Next() || string(it.Key()) != "k030" {
		t.Errorf("Seek landed on %q, want k030", it.Key())
	}
	var got []string
	tr.ScanRange([]byte("k020"), []byte("k060"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	want := []string{"k020", "k030", "k040", "k050"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ScanRange = %v, want %v", got, want)
	}
	// Early stop.
	n := 0
	tr.ScanRange(nil, nil, func(k, v []byte) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestScanPrefix(t *testing.T) {
	tr, _ := newTree(t)
	// Simulate a duplicate-key secondary index: key = col + rid.
	for i := 0; i < 20; i++ {
		key := append([]byte("copper\x00"), byte(i))
		tr.Insert(key, []byte{byte(i)})
	}
	tr.Insert([]byte("copperx"), []byte("other"))
	tr.Insert([]byte("zinc\x00a"), []byte("other"))
	n := 0
	tr.ScanPrefix([]byte("copper\x00"), func(k, v []byte) bool {
		n++
		return true
	})
	if n != 20 {
		t.Errorf("prefix scan found %d, want 20", n)
	}
}

func TestOpenExisting(t *testing.T) {
	mgr, err := disk.Open(filepath.Join(t.TempDir(), "reopen.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	pool := bufpool.New(mgr, 64)
	tr, _ := Create(pool)
	for i := 0; i < 2000; i++ {
		tr.Insert([]byte(fmt.Sprintf("k%05d", i)), []byte("v"))
	}
	anchor := tr.Anchor()
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}

	pool2 := bufpool.New(mgr, 64)
	tr2, err := Open(pool2, anchor)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := tr2.Len(); n != 2000 {
		t.Errorf("reopened Len = %d", n)
	}
	val, ok, _ := tr2.Get([]byte("k01234"))
	if !ok || string(val) != "v" {
		t.Error("reopened Get failed")
	}
	// Open on a non-anchor page must fail.
	if _, err := Open(pool2, tr2mustRoot(t, tr2)); err == nil {
		t.Error("Open on non-anchor page should fail")
	}
}

func tr2mustRoot(t *testing.T, tr *Tree) disk.PageID {
	t.Helper()
	id, err := tr.root()
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestQuickModel compares the tree against a sorted map model under random
// insert/replace/delete workloads.
func TestQuickModel(t *testing.T) {
	f := func(seed int64) bool {
		mgr, err := disk.Open(filepath.Join(t.TempDir(), fmt.Sprintf("q%d.db", seed)))
		if err != nil {
			return false
		}
		defer mgr.Close()
		pool := bufpool.New(mgr, 128)
		tr, err := Create(pool)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		model := map[string]string{}
		for step := 0; step < 2000; step++ {
			k := fmt.Sprintf("key-%03d", rng.Intn(300))
			switch rng.Intn(3) {
			case 0, 1:
				v := fmt.Sprintf("val-%d", step)
				if _, err := tr.Insert([]byte(k), []byte(v)); err != nil {
					return false
				}
				model[k] = v
			case 2:
				ok, err := tr.Delete([]byte(k))
				if err != nil {
					return false
				}
				_, inModel := model[k]
				if ok != inModel {
					return false
				}
				delete(model, k)
			}
		}
		// Full agreement.
		if n, _ := tr.Len(); n != len(model) {
			return false
		}
		keys := make([]string, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		i := 0
		bad := false
		it := tr.Seek(nil)
		for it.Next() {
			if i >= len(keys) || string(it.Key()) != keys[i] || string(it.Value()) != model[keys[i]] {
				bad = true
				break
			}
			i++
		}
		return !bad && it.Err() == nil && i == len(keys) && tr.Check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestPagesListsEveryPageOnce builds one tree by splitting inserts and
// one by bulk load in a file that holds nothing else: between them their
// page lists must cover the file exactly, each page once, and the cheap
// count each tree keeps must agree with its list — also after a reopen.
func TestPagesListsEveryPageOnce(t *testing.T) {
	mgr, err := disk.Open(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	pool := bufpool.New(mgr, 2048)
	grown, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := grown.Pages(); len(got) != 2 || grown.NumPages() != 2 {
		t.Fatalf("empty tree: pages %v, count %d; want anchor and root", got, grown.NumPages())
	}
	pad := bytes.Repeat([]byte{'k'}, 300) // fat keys: three levels within a few thousand inserts
	for _, i := range rand.New(rand.NewSource(3)).Perm(4000) {
		if _, err := grown.Insert(append([]byte(fmt.Sprintf("%06d", i)), pad...), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	items := make([]Item, 100000)
	for i := range items {
		k := []byte(fmt.Sprintf("bulk%08d", i))
		items[i] = Item{Key: k, Val: k[4:]}
	}
	bulk, err := BulkLoad(pool, items)
	if err != nil {
		t.Fatal(err)
	}

	owner := make([]string, mgr.NumPages())
	for name, tr := range map[string]*Tree{"grown": grown, "bulk": bulk} {
		ids, err := tr.Pages()
		if err != nil {
			t.Fatal(err)
		}
		if ids[0] != tr.Anchor() || len(ids) != tr.NumPages() {
			t.Errorf("%s: %d pages listed from %d, NumPages %d, anchor %d", name, len(ids), ids[0], tr.NumPages(), tr.Anchor())
		}
		if len(ids) < 200 {
			t.Errorf("%s: only %d pages; the test wants inner levels", name, len(ids))
		}
		for _, id := range ids {
			if int(id) >= len(owner) || owner[id] != "" {
				t.Fatalf("%s lists page %d, which is outside the file or already listed by %q", name, id, owner[id])
			}
			owner[id] = name
		}
	}
	for id := 1; id < len(owner); id++ {
		if owner[id] == "" {
			t.Fatalf("page %d of the file is in neither tree's list", id)
		}
	}

	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(bufpool.New(mgr, 64), grown.Anchor())
	if err != nil {
		t.Fatal(err)
	}
	if reopened.NumPages() != grown.NumPages() || grown.Freeze(1).NumPages() != grown.NumPages() {
		t.Errorf("reopened tree counts %d pages, frozen %d, live %d",
			reopened.NumPages(), grown.Freeze(1).NumPages(), grown.NumPages())
	}
}
