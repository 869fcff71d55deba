package memstore

// MappedChunks returns the chunks mapped process-wide and not yet unmapped.
func MappedChunks() int64 { return mapped.Load() }
