package store

import "os"

// FailWriteAtomic makes WriteAtomic's step — "fsync file" (the temporary
// file), "rename" or "fsync dir" — fail with err until restore is called.
// It is the fault seam's handle for the external test package.
func FailWriteAtomic(step string, err error) (restore func()) {
	sync, ren := fsync, rename
	failIf := func(dir bool) func(*os.File) error {
		return func(f *os.File) error {
			if st, serr := f.Stat(); serr == nil && st.IsDir() == dir {
				return err
			}
			return sync(f)
		}
	}
	switch step {
	case "fsync file":
		fsync = failIf(false)
	case "rename":
		rename = func(string, string) error { return err }
	case "fsync dir":
		fsync = failIf(true)
	default:
		panic("FailWriteAtomic: unknown step " + step)
	}
	return func() { fsync, rename = sync, ren }
}
