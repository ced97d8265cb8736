package mqo

// DedupSignature exposes the merge signature to the external identity tests.
func (o *Op) DedupSignature() string { return o.sigDedup }
