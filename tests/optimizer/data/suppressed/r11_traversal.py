def column_sum(grid, n):
    acc = 0
    for j in range(n):
        for i in range(n):
            acc += grid[i][j]  # pepo: ignore[R11_TRAVERSAL]
    return acc
