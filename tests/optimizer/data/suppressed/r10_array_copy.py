def copied(src):
    dst = [0] * len(src)
    for i in range(len(src)):  # pepo: ignore[R10_ARRAY_COPY]
        dst[i] = src[i]
    return dst
