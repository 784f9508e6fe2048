package netsim

import "sensorcq/internal/model"

// dispatch routes one queued item to the owning node's handler. It is the
// single place that understands the injection/message discrimination and
// that rebuilds a handler's arguments from the item's one payload; both
// engines call it (the sequential engine from the caller's goroutine, the
// concurrent engine from the node's worker goroutine), so the two can never
// drift apart in how they present work to a protocol handler.
func dispatch(h Handler, ctx *Context, item *queued) {
	// Expose the item's lineage round to the context: messages the handler
	// sends while processing this item belong to the same round (watermark
	// accounting), and deliveries fall back to it when a complex event has
	// no components to derive a round from.
	ctx.round = item.round
	msg := &item.msg
	switch msg.Kind {
	case localSensor:
		adv := ctx.sensors.Advertisement(msg.Ref)
		h.LocalSensor(ctx, model.Sensor{ID: adv.Sensor, Attr: adv.Attr, Location: adv.Location})
	case localSubscribe:
		h.LocalSubscribe(ctx, msg.Sub)
	case localUnsubscribe:
		h.LocalUnsubscribe(ctx, msg.UnsubID)
	case localPublish:
		h.LocalPublish(ctx, msg.Ev)
	case localTick:
		// Watermark ticks are only generated while an aggregate
		// subscription is registered; handlers without the capability
		// ignore them.
		if wh, ok := h.(WatermarkHandler); ok {
			wh.HandleWatermark(ctx, msg.Ev.Round)
		}
	case KindAdvertisement:
		h.HandleAdvertisement(ctx, item.from, ctx.sensors.Advertisement(msg.Ref))
	case KindSubscription:
		h.HandleSubscription(ctx, item.from, msg.Sub)
	case KindUnsubscription:
		h.HandleUnsubscription(ctx, item.from, msg.UnsubID)
	case KindEvent:
		h.HandleEvent(ctx, item.from, msg.Ev)
	case KindPartialAggregate:
		if ah, ok := h.(AggregateHandler); ok {
			ah.HandlePartialAggregate(ctx, item.from, msg.Agg)
		}
	}
}
