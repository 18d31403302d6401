//! The front door's connection set: a bounded set of connection
//! threads, each serving one connection after another.
//!
//! The acceptor offers every accepted connection to [`Door::admit`]. A
//! parked thread takes it; when none is parked and the set is below
//! its bound, the acceptor starts a new thread for it; otherwise it is
//! refused. A thread that has finished a connection parks in
//! [`Door::next`] until it is handed another. Every admitted connection
//! stays registered until it is finished, so [`Door::drain`] can shut
//! the read side of each one: a thread blocked waiting for a next
//! request wakes at once instead of at its idle timeout.

use std::collections::{HashMap, VecDeque};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// One admitted connection, registered with its door until a thread
/// finishes it through [`Door::next`].
pub(crate) struct Conn {
    id: u64,
    pub(crate) stream: Arc<TcpStream>,
}

/// What [`Door::admit`] decided for one accepted connection.
pub(crate) enum Admit {
    /// A parked thread takes it.
    Handed,
    /// No thread is parked and the set has room: start one for it.
    Spawn(Conn),
    /// Every thread of the set is busy, or the door is draining.
    Refuse(TcpStream),
}

/// The bounded set of connection threads and the connections they
/// serve.
pub(crate) struct Door {
    limit: usize,
    state: Mutex<State>,
    handoff: Condvar,
}

#[derive(Default)]
struct State {
    /// Connection threads alive.
    threads: usize,
    /// Threads parked in [`Door::next`].
    parked: usize,
    /// Connections handed to parked threads and not yet taken; never
    /// more than `parked`.
    pending: VecDeque<Conn>,
    /// Every admitted connection that is not yet finished.
    open: HashMap<u64, Arc<TcpStream>>,
    next_id: u64,
    draining: bool,
}

impl Door {
    /// A door of at most `limit` connection threads (at least one).
    pub(crate) fn new(limit: usize) -> Door {
        Door {
            limit: limit.max(1),
            state: Mutex::new(State::default()),
            handoff: Condvar::new(),
        }
    }

    /// The most connection threads, so the most connections served at
    /// once.
    pub(crate) fn limit(&self) -> usize {
        self.limit
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("door state lock poisoned: a connection thread panicked holding it")
    }

    /// Registers `stream` and decides which thread serves it.
    pub(crate) fn admit(&self, stream: TcpStream) -> Admit {
        let mut st = self.lock();
        let handoff = st.pending.len() < st.parked;
        if st.draining || !(handoff || st.threads < self.limit) {
            return Admit::Refuse(stream);
        }
        let stream = Arc::new(stream);
        let id = st.next_id;
        st.next_id += 1;
        st.open.insert(id, Arc::clone(&stream));
        let conn = Conn { id, stream };
        if handoff {
            st.pending.push_back(conn);
            drop(st);
            self.handoff.notify_one();
            Admit::Handed
        } else {
            st.threads += 1;
            Admit::Spawn(conn)
        }
    }

    /// Finishes `done`, closing its socket, and parks the calling
    /// thread until it is handed a next connection. `None` means the
    /// door is draining and the thread should exit.
    pub(crate) fn next(&self, done: Conn) -> Option<Conn> {
        let registered = self.lock().open.remove(&done.id);
        // The last handle drops here, outside the lock.
        drop((done, registered));
        let mut st = self.lock();
        st.parked += 1;
        loop {
            // Connections handed over before a drain are still served:
            // their read side is shut, so only bytes that already
            // arrived are read and answered.
            if let Some(conn) = st.pending.pop_front() {
                st.parked -= 1;
                return Some(conn);
            }
            if st.draining {
                st.parked -= 1;
                st.threads -= 1;
                return None;
            }
            st = self
                .handoff
                .wait(st)
                .expect("door state lock poisoned: a connection thread panicked holding it");
        }
    }

    /// Refuses every further connection, releases parked threads, and
    /// shuts the read side of every open connection. A request that
    /// already arrived is still read and answered; a thread waiting for
    /// a next request reads end-of-stream at once.
    pub(crate) fn drain(&self) {
        let open: Vec<Arc<TcpStream>> = {
            let mut st = self.lock();
            st.draining = true;
            st.open.values().cloned().collect()
        };
        self.handoff.notify_all();
        for stream in open {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }

    /// Connections admitted and not yet finished.
    pub(crate) fn open_count(&self) -> usize {
        self.lock().open.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A connected pair: (client side, server side).
    fn pair(listener: &TcpListener) -> (TcpStream, TcpStream) {
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        (client, listener.accept().unwrap().0)
    }

    #[test]
    fn threads_are_started_up_to_the_limit_then_reused_then_refused() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let door = Door::new(2);
        let (_c1, s1) = pair(&listener);
        let (_c2, s2) = pair(&listener);
        let (_c3, s3) = pair(&listener);
        let Admit::Spawn(first) = door.admit(s1) else {
            panic!("an empty set starts a thread")
        };
        assert!(matches!(door.admit(s2), Admit::Spawn(_)));
        assert!(
            matches!(door.admit(s3), Admit::Refuse(_)),
            "two threads busy at a limit of two"
        );
        assert_eq!(door.open_count(), 2);
        std::thread::scope(|s| {
            // The first thread finishes its connection and parks; the
            // next connection is handed to it instead of a new thread.
            let parked = s.spawn(|| door.next(first));
            while door.lock().parked == 0 {
                std::thread::yield_now();
            }
            assert_eq!(door.open_count(), 1);
            let (_c4, s4) = pair(&listener);
            assert!(matches!(door.admit(s4), Admit::Handed));
            let handed = parked.join().unwrap().expect("handed a connection");
            assert_eq!(door.lock().threads, 2);
            // Draining releases a parked thread and refuses the rest.
            door.drain();
            let (_c5, s5) = pair(&listener);
            assert!(matches!(door.admit(s5), Admit::Refuse(_)));
            assert!(door.next(handed).is_none());
            assert_eq!(door.lock().threads, 1);
        });
    }
}
