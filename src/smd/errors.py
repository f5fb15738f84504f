"""Exception types shared across the package.

`cli.EXIT_CODES` maps each of these onto a process exit code; library
code raises them directly.
"""


class ConfigurationError(ValueError):
    """Invalid configuration: bad dimensions, fractions, seeds, or files."""


class ShapeError(ValueError):
    """Array or network shape mismatch between operands."""


class ParseError(ValueError):
    """Malformed input file; message includes the offending row where known."""


class CheckpointError(ValueError):
    """Checkpoint file is corrupt, truncated, or not a checkpoint at all."""


class TrainingDivergenceError(RuntimeError):
    """Loss became non-finite during training."""

    def __init__(self, epoch: int, batch: int):
        self.epoch = epoch
        self.batch = batch
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")


class DataHygieneError(RuntimeError):
    """Validation and test data overlap; model selection would leak."""


class TaskMismatchError(RuntimeError):
    """Model or command does not fit the task: the model's input or output
    width differs from the task's features or classes, or a 2-D-only command
    runs on another task."""


class WorkerError(RuntimeError):
    """A forked worker process (of `ablate`'s sweep or of a scoring pass)
    died before it returned its results: killed by a signal (out of
    memory, say) or exited early."""
