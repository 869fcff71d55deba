package core

// BulkSlab is the bulk-load slab size, for the external tests that pin its
// boundaries.
const BulkSlab = bulkSlab
