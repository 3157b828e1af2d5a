package service

// setWaiterCap lowers the long-poll waiter cap, so a test reaches it
// without parking maxViewWaiters requests. Call it before serving.
func (s *Server) setWaiterCap(n int) { s.waiterCap = n }
