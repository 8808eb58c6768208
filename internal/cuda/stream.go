package cuda

// Stream is a modelled CUDA stream: the handle a prefetch is submitted on.
// GateKeeper-GPU submits each input buffer's prefetch to its own stream so
// migrations overlap ("each buffer is asynchronously submitted to a different
// stream"). The stream keeps no timeline of its own: transfer time is the
// cost model's (CostModel.TransferSeconds).
type Stream struct {
	dev *Device
}

// NewStream creates a stream bound to the device.
func (d *Device) NewStream() *Stream { return &Stream{dev: d} }
