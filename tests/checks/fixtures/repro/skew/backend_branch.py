"""An engine re-deciding the backend beside the round kernel."""


def heavy_blocks(settings, blocks):
    if settings.backend == "numpy":  # line 5: settings-resolution
        return [block.as_arrays() for block in blocks]
    return [block.as_tuples() for block in blocks]
