package leak

func compute() int { return 1 }
func use(int)      {}

func leaky(cond bool) {
	res := make(chan int)
	go func() { res <- compute() }()
	if cond {
		use(<-res)
	}
}
