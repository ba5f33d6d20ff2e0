package store

import (
	"io"
	"os"
	"path/filepath"
)

// WriteAtomic's fsync and rename: the os package's, or a test's fault seam.
var fsync, rename = (*os.File).Sync, os.Rename

// WriteFileAtomic writes data to path by WriteAtomic.
func WriteFileAtomic(path string, data []byte, syncDir bool) error {
	return WriteAtomic(path, syncDir, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// WriteAtomic writes path via tmp + fsync + rename so a crash never leaves
// the path pointing at a file whose content didn't make it to disk: fill
// writes the content to the temporary file, and if it fails the path keeps
// what it had. With syncDir the containing directory is fsynced too, making
// the rename itself durable — required whenever something durable is about
// to depend on the new file: a WAL record naming it (lifecycle model and
// detector generations), or the WAL truncation a snapshot licenses, after
// which a lost rename would bring back an older snapshot with the segments
// between the two watermarks gone.
func WriteAtomic(path string, syncDir bool, fill func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	if err = fill(tmp); err == nil {
		err = fsync(tmp)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if !syncDir {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return fsync(d)
}
