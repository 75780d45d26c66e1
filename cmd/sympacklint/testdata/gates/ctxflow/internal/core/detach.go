package core

import "context"

func factorize(ctx context.Context) context.Context {
	return context.Background()
}
