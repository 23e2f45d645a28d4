//! The sample BRASS applications of §3.4 and §4, and [`AppId`], the one
//! declaration of which applications exist.
//!
//! Each application is implemented "completely independently of the other
//! applications" as its own [`BrassApp`]; each took
//! "at most a few hundred JS lines of BRASS code" in production, and the
//! implementations here are comparably sized.

pub mod active_status;
pub mod likes;
pub mod lvc;
pub mod messenger;
pub mod notifications;
pub mod stories;
pub mod typing;

pub use active_status::ActiveStatusApp;
pub use likes::LikesApp;
pub use lvc::{LvcApp, LvcConfig};
pub use messenger::MessengerApp;
pub use notifications::NotificationsApp;
pub use stories::{StoriesApp, StoriesConfig};
pub use typing::TypingApp;

use pylon::Topic;
use simkit::snap::{Snap, SnapError, SnapReader, SnapResult, SnapWriter};

use crate::app::BrassApp;

/// One application BRASS runs. Each instance "addresses the requirements
/// of only one application" (§3.2), so hosts, effects, queued events and
/// per-app metrics all name the application by this one-byte handle. The
/// variants are declared in the byte order of their names, so the derived
/// `Ord` is name order: a host keeps its instances in it, which fixes the
/// order of handler effects, and snapshots write maps in it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AppId {
    ActiveStatus,
    Likes,
    Lvc,
    Messenger,
    Notifications,
    Stories,
    Typing,
}

/// What makes an application instance.
pub type AppFactory = fn() -> Box<dyn BrassApp>;

/// An application's row of [`FACTS`]; each field is read by the
/// [`AppId`] method of its name (`restore` by `restore_app`).
struct Facts {
    name: &'static str,
    family: &'static str,
    retains_unacked: bool,
    factory: AppFactory,
    restore: fn(&mut SnapReader<'_>) -> SnapResult<Box<dyn BrassApp>>,
}

const fn facts<A: BrassApp + Default + Snap + 'static>(
    name: &'static str,
    family: &'static str,
    retains_unacked: bool,
) -> Facts {
    Facts {
        name,
        family,
        retains_unacked,
        factory: || Box::new(A::default()),
        restore: |r| Ok(Box::new(A::restore(r)?)),
    }
}

/// The one table of the applications, in [`AppId`] order.
static FACTS: [Facts; 7] = [
    facts::<ActiveStatusApp>("active_status", "Status", false),
    facts::<LikesApp>("likes", "Likes", false),
    facts::<LvcApp>("lvc", "LVC", false),
    facts::<MessengerApp>("messenger", "Msgr", true),
    facts::<NotificationsApp>("notifications", "Notif", false),
    facts::<StoriesApp>("stories", "Stories", false),
    facts::<TypingApp>("typing", "TI", false),
];

impl AppId {
    /// Every application, in name order.
    pub const ALL: [AppId; 7] = [
        AppId::ActiveStatus,
        AppId::Likes,
        AppId::Lvc,
        AppId::Messenger,
        AppId::Notifications,
        AppId::Stories,
        AppId::Typing,
    ];

    /// The application's name, e.g. `"lvc"`.
    pub fn name(self) -> &'static str {
        FACTS[self as usize].name
    }

    /// The application named `name`, if there is one.
    pub fn from_name(name: &str) -> Option<AppId> {
        AppId::ALL.into_iter().find(|app| app.name() == name)
    }

    /// The first segment of the application's Pylon topics, e.g. `"LVC"`.
    pub fn family(self) -> &'static str {
        FACTS[self as usize].family
    }

    /// The application whose family `topic` is in, if any.
    pub fn of_topic(topic: &Topic) -> Option<AppId> {
        let family = topic.family();
        AppId::ALL.into_iter().find(|app| app.family() == family)
    }

    /// Whether the application's streams retain unacked updates for
    /// replay: only Messenger's are reliable (§4).
    pub fn retains_unacked(self) -> bool {
        FACTS[self as usize].retains_unacked
    }

    /// What makes a fresh instance with the application's default config.
    pub fn factory(self) -> AppFactory {
        FACTS[self as usize].factory
    }

    /// Reads an instance of this application back from a snapshot.
    pub fn restore_app(self, r: &mut SnapReader<'_>) -> SnapResult<Box<dyn BrassApp>> {
        (FACTS[self as usize].restore)(r)
    }
}

/// An application snapshots as its name; any other name is rejected.
impl Snap for AppId {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_str(self.name());
    }

    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        let name = r.get_str()?;
        AppId::from_name(&name)
            .ok_or_else(|| SnapError::Invalid(format!("unknown application {name:?}")))
    }
}
